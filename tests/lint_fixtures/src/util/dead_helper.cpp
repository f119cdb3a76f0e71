// Fixture: definitions no binary reaches. DeadHelper is a finding; the
// test-only probe below it carries a justified allow and is not.
int DeadHelper(int x) { return x + 1; }

// wsnstatic:allow(unreached): test-only; fixture tests call it directly
int ProbeForTests(int x) { return x * 2; }
