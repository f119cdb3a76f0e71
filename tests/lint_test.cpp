// Locks the wsnlint static analyzer (tools/wsnlint). The `Lint` suite
// covers the per-file rules and the CLI's shared plumbing, the `Static`
// suite the cross-TU rules:
//
//  1. Golden: analyzing the tests/lint_fixtures corpus (bad + clean files
//     per rule, plus allow/marker abuse) must reproduce expected.golden
//     byte-for-byte — rule ids, line numbers, messages and sort order are
//     all load-bearing for the CI gate — and a rerun is byte-identical.
//  2. Fix: --fix inserts a missing #pragma once after the leading comment
//     block, resolves the finding, and is idempotent.
//  3. Clean tree: the real working tree must analyze finding-free; every
//     sanctioned exception is a justified marker, itself checked for
//     staleness.
//  4. Mutation: the seeded mutations (std::rand() in src/sim/, an
//     unordered_map loop in a CSV writer, an upward include, a banned API
//     two levels below a hot root, a mutable static below a pool root) must
//     each be detected — so CI goes red if one lands in the tree.
#include "rules.h"
#include "runner.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

using wsnlint::ApplyFixes;
using wsnlint::CheckSource;
using wsnlint::Finding;
using wsnlint::FormatFindings;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  for (const Finding& f : findings) {
    if (f.rule == rule) return true;
  }
  return false;
}

wsnlint::Options FixtureOptions() {
  wsnlint::Options options;
  options.root = WSNLINK_LINT_FIXTURES_DIR;
  options.paths = {"src", "bench"};
  return options;
}

TEST(Lint, FixtureCorpusMatchesGolden) {
  const wsnlint::RunResult result = wsnlint::Run(FixtureOptions());
  const std::string expected =
      ReadFile(std::string(WSNLINK_LINT_FIXTURES_DIR) + "/expected.golden");
  EXPECT_EQ(FormatFindings(result.findings), expected);
}

TEST(Lint, RepoLintsClean) {
  // The whole working tree must stay finding-free under both rule
  // families; every sanctioned exception is a justified allow or marker,
  // which suppresses its finding (and is itself checked for staleness).
  wsnlint::Options options;
  options.root = WSNLINK_SOURCE_DIR;
  const wsnlint::RunResult result = wsnlint::Run(options);
  EXPECT_EQ(FormatFindings(result.findings), "");
  EXPECT_GT(result.files_scanned, 200);  // really scanned the tree
}

TEST(Lint, FixInsertsPragmaOnceAfterCommentBlock) {
  const std::string bad_header =
      ReadFile(std::string(WSNLINK_LINT_FIXTURES_DIR) + "/src/bad_header.h");
  ASSERT_TRUE(HasRule(CheckSource("src/bad_header.h", bad_header),
                      "header-hygiene"));

  const std::string fixed = ApplyFixes("src/bad_header.h", bad_header);
  EXPECT_NE(fixed, bad_header);
  EXPECT_NE(fixed.find("#pragma once"), std::string::npos);
  // Inserted after the leading comment block, not at byte zero.
  EXPECT_EQ(fixed.rfind("// Fixture", 0), 0u);
  // The pragma finding is resolved (the using-namespace one remains).
  bool pragma_finding = false;
  for (const Finding& f : CheckSource("src/bad_header.h", fixed)) {
    if (f.message.find("#pragma once") != std::string::npos) {
      pragma_finding = true;
    }
  }
  EXPECT_FALSE(pragma_finding);
}

TEST(Lint, FixIsIdempotent) {
  const std::string bad_header =
      ReadFile(std::string(WSNLINK_LINT_FIXTURES_DIR) + "/src/bad_header.h");
  const std::string once = ApplyFixes("src/bad_header.h", bad_header);
  const std::string twice = ApplyFixes("src/bad_header.h", once);
  EXPECT_EQ(once, twice);

  // Already-clean files are returned byte-identical.
  const std::string clean_header =
      ReadFile(std::string(WSNLINK_LINT_FIXTURES_DIR) + "/src/clean_header.h");
  EXPECT_EQ(ApplyFixes("src/clean_header.h", clean_header), clean_header);
}

TEST(Lint, MutationStdRandInSimIsDetected) {
  const std::string mutated =
      "#include \"sim/simulator.h\"\n"
      "#include <cstdlib>\n"
      "int Jitter() { return std::rand() % 7; }\n";
  EXPECT_TRUE(HasRule(CheckSource("src/sim/simulator.cpp", mutated),
                      "no-wallclock"));
}

TEST(Lint, MutationUnorderedLoopInCsvWriterIsDetected) {
  const std::string mutated =
      "#include \"util/csv.h\"\n"
      "#include <unordered_map>\n"
      "void Dump(wsnlink::util::CsvWriter& w,\n"
      "          const std::unordered_map<int, int>& m) {\n"
      "  for (const auto& [k, v] : m) w.WriteRow({});\n"
      "}\n";
  EXPECT_TRUE(HasRule(CheckSource("src/util/csv.cpp", mutated),
                      "no-unordered-output"));
}

TEST(Lint, CommentsAndStringsAreNotCode) {
  const std::string content =
      "// std::rand() in a comment\n"
      "/* steady_clock in a block comment */\n"
      "const char* s = \"std::rand()\";\n"
      "const char* r = R\"(random_device)\";\n";
  EXPECT_TRUE(CheckSource("src/doc.cpp", content).empty());
}

TEST(Lint, DigitSeparatorIsNotACharLiteral) {
  // If 1'000'000 opened a char literal the scanner would blank the rest of
  // the line and the std::rand() on the next one.
  const std::string content =
      "long big = 1'000'000;\n"
      "int bad = std::rand();\n";
  EXPECT_TRUE(HasRule(CheckSource("src/sep.cpp", content), "no-wallclock"));
  EXPECT_FALSE(HasRule(CheckSource("src/sep.cpp", content), "no-float-eq"));
}

TEST(Lint, RuleScopingFollowsDirectories) {
  const std::string clock_user =
      "#include <chrono>\n"
      "double Now();\n";
  // Wall-clock reads are a src/-only contract: bench timing harnesses are
  // allowed to measure real time.
  EXPECT_TRUE(HasRule(CheckSource("src/phy/timing.cpp", clock_user),
                      "no-wallclock"));
  EXPECT_FALSE(HasRule(CheckSource("bench/perf_sweep.cpp", clock_user),
                       "no-wallclock"));

  // Raw parsing is legal only inside src/util/ (the validated parsers
  // themselves are implemented with it).
  const std::string parser = "int n = std::stoi(text);\n";
  EXPECT_FALSE(HasRule(CheckSource("src/util/args.cpp", parser),
                       "no-raw-parse"));
  EXPECT_TRUE(HasRule(CheckSource("src/experiment/sweep.cpp", parser),
                      "no-raw-parse"));
}

TEST(Lint, AllowDirectiveSuppressesAndIsChecked) {
  const std::string allowed =
      "// wsnlint:allow(no-naked-new): fixture-scale arena, freed in Reset\n"
      "int* Make() { return new int[4]; }\n";
  EXPECT_TRUE(CheckSource("src/arena.cpp", allowed).empty());

  const std::string unjustified =
      "// wsnlint:allow(no-naked-new)\n"
      "int* Make() { return new int[4]; }\n";
  EXPECT_TRUE(HasRule(CheckSource("src/arena.cpp", unjustified),
                      "allow-directive"));

  const std::string stale =
      "// wsnlint:allow(no-naked-new): nothing here actually allocates\n"
      "int Make() { return 4; }\n";
  EXPECT_TRUE(HasRule(CheckSource("src/arena.cpp", stale),
                      "allow-directive"));
}

TEST(Lint, FixtureDirsAreExcludedFromTreeScans) {
  EXPECT_TRUE(wsnlint::IsExcluded("tests/lint_fixtures/src/bad_header.h"));
  EXPECT_TRUE(wsnlint::IsExcluded("tests/golden/contention_n1.csv"));
  EXPECT_TRUE(wsnlint::IsExcluded("build/foo.cpp"));
  EXPECT_TRUE(wsnlint::IsExcluded("build-sa/foo.cpp"));
  EXPECT_FALSE(wsnlint::IsExcluded("tests/lint_test.cpp"));
  EXPECT_FALSE(wsnlint::IsExcluded("src/sim/simulator.cpp"));
  // Whole path components match, not substrings.
  EXPECT_FALSE(wsnlint::IsExcluded("tests/golden_test.cpp"));
  EXPECT_FALSE(wsnlint::IsExcluded(".github/hook.cpp"));
  EXPECT_FALSE(wsnlint::IsExcluded("src/build_plan.cpp"));
}

// --- Cross-TU rules ------------------------------------------------------

// The cross-TU family's share of a findings listing: its four rules, marker
// problems, and allow problems spelled `wsnstatic:allow`.
std::string CrossTuLines(const std::string& listing) {
  std::istringstream in(listing);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    // path:line:rule: message
    const std::size_t path_end = line.find(':');
    const std::size_t line_end = line.find(':', path_end + 1);
    const std::size_t rule_end = line.find(": ", line_end + 1);
    if (rule_end == std::string::npos) continue;
    const std::string rule = line.substr(line_end + 1, rule_end - line_end - 1);
    bool cross_tu = rule == "marker-directive" ||
                    (rule == "allow-directive" &&
                     line.find("wsnstatic:allow", rule_end) != std::string::npos);
    for (const wsnlint::RuleInfo& info : wsnlint::Rules()) {
      if (info.id == rule && info.scope == wsnlint::Scope::kCrossTu) {
        cross_tu = true;
      }
    }
    if (cross_tu) out += line + "\n";
  }
  return out;
}

TEST(Static, FixtureCorpusMatchesGolden) {
  // The cross-TU rules reproduce their lines of the shared golden, and the
  // corpus exercises every one of them.
  const wsnlint::RunResult result = wsnlint::Run(FixtureOptions());
  const std::string expected = CrossTuLines(
      ReadFile(std::string(WSNLINK_LINT_FIXTURES_DIR) + "/expected.golden"));
  EXPECT_EQ(CrossTuLines(FormatFindings(result.findings)), expected);
  for (const wsnlint::RuleInfo& info : wsnlint::Rules()) {
    if (info.scope != wsnlint::Scope::kCrossTu) continue;
    EXPECT_NE(expected.find(":" + info.id + ": "), std::string::npos)
        << info.id;
  }
  EXPECT_NE(expected.find(":marker-directive: "), std::string::npos);
  EXPECT_NE(expected.find("wsnstatic:allow"), std::string::npos);
}

TEST(Static, RepoAnalyzesClean) {
  // `wsnlint --root . src`, the baseline of the CI mutation drills: the
  // simulator tree alone must stay finding-free, and its index must carry
  // the justified markers.
  wsnlint::Options options;
  options.root = WSNLINK_SOURCE_DIR;
  options.paths = {"src"};
  const wsnlint::RunResult result = wsnlint::Run(options);
  EXPECT_EQ(FormatFindings(result.findings), "");
  EXPECT_GT(result.files_scanned, 100);  // really scanned src/
  EXPECT_FALSE(result.inventory.empty());
}

TEST(Static, RerunIsByteIdentical) {
  const wsnlint::RunResult first = wsnlint::Run(FixtureOptions());
  const wsnlint::RunResult second = wsnlint::Run(FixtureOptions());
  EXPECT_EQ(FormatFindings(first.findings), FormatFindings(second.findings));
  EXPECT_EQ(first.inventory, second.inventory);
}

TEST(Static, InventoryListsJustifiedMarkers) {
  wsnlint::Options options;
  options.root = WSNLINK_SOURCE_DIR;
  const wsnlint::RunResult result = wsnlint::Run(options);
  // The live tree's sanctioned escapes must all surface in the artifact.
  EXPECT_NE(result.inventory.find("allow(lp-isolation)"), std::string::npos);
  EXPECT_NE(result.inventory.find("transient("), std::string::npos);
  EXPECT_NE(result.inventory.find("serdes("), std::string::npos);
}

// Mutation drills (in-process twins of the CI sed drills).

TEST(Static, MutationUpwardIncludeIsDetected) {
  const std::string source = "#include \"experiment/sweep.h\"\n";
  const wsnlint::RunResult result =
      wsnlint::Check({{"src/channel/medium.cpp", source}});
  EXPECT_TRUE(HasRule(result.findings, "layer-dag"));
}

TEST(Static, MutationAllocTwoLevelsBelowHotRootIsDetected) {
  // root (hot) -> Middle() -> Leaf() -> malloc: the violation is two
  // translation units away from the wsnlint:hot-path marker.
  const std::string root = R"(
// wsnlint:hot-path
int Middle(int);
int Run(int n) { return Middle(n); }
)";
  const std::string middle = R"(
int Leaf(int);
int Middle(int n) { return Leaf(n); }
)";
  const std::string leaf = R"(
#include <cstdlib>
int Leaf(int n) { return static_cast<char*>(std::malloc(n))[0]; }
)";
  const wsnlint::RunResult result =
      wsnlint::Check({{"src/experiment/root.cpp", root},
                      {"src/util/middle.cpp", middle},
                      {"src/util/leaf.cpp", leaf}});
  EXPECT_TRUE(HasRule(result.findings, "hot-path-transitive"));
}

TEST(Static, MutationSharedStaticBelowLpRootIsDetected) {
  const std::string root = "#include \"util/shared.h\"\n";
  const std::string header = "int Bump();\n";
  const std::string impl = R"(
#include "util/shared.h"
int Bump() {
  static int hits = 0;
  return ++hits;
}
)";
  const wsnlint::RunResult result =
      wsnlint::Check({{"src/util/thread_pool.cpp", root},
                      {"src/util/shared.h", header},
                      {"src/util/shared.cpp", impl}});
  EXPECT_TRUE(HasRule(result.findings, "lp-isolation"));

  // Roots match whole path components: observe/ is not serve/.
  const std::string lone = "static int hits = 0;\n";
  EXPECT_TRUE(HasRule(wsnlint::Check({{"src/serve/hits.cpp", lone}}).findings,
                      "lp-isolation"));
  EXPECT_FALSE(
      HasRule(wsnlint::Check({{"src/util/observe/hits.cpp", lone}}).findings,
              "lp-isolation"));
}

TEST(Static, PrefixedRawStringsAreNotCode) {
  // u8R/uR/UR/LR prefixed raw strings hid banned tokens from earlier
  // scanners that only recognised the bare R prefix. serve/ files are LP
  // roots, so a misread would surface as an lp-isolation finding.
  const std::string source = R"outer(
const char* a = u8R"(
static int fake = 0;
)";
const wchar_t* b = LR"(
thread_local int spook = 1;
)";
)outer";
  const wsnlint::RunResult result =
      wsnlint::Check({{"src/serve/text.cpp", source}});
  EXPECT_EQ(FormatFindings(result.findings), "");
}

TEST(Static, StaleTransientIsDetected) {
  // A transient marker on a field that round-trips is itself a finding —
  // escapes cannot rot in place once the field is properly persisted.
  const std::string source = R"(
struct Record {
  // wsnstatic:transient(ticks): pretend this was once unpersisted
  int ticks = 0;
};
// wsnstatic:serdes(Record, WriteRecord, ReadRecord): persistence contract
int WriteRecord(const Record& record) { return record.ticks; }
Record ReadRecord(int value) {
  Record record;
  record.ticks = value;
  return record;
}
)";
  const wsnlint::RunResult result =
      wsnlint::Check({{"src/experiment/record.cpp", source}});
  EXPECT_TRUE(HasRule(result.findings, "marker-directive"));
  EXPECT_FALSE(HasRule(result.findings, "serdes-complete"));
}

TEST(Static, AllowPrefixFollowsTheRuleFamily) {
  // Each rule keeps its own allow spelling: a wsnlint:allow cannot silence
  // a cross-TU rule, nor a wsnstatic:allow a per-file one.
  const std::string source =
      "// wsnlint:allow(layer-dag): wrong spelling for a cross-TU rule\n"
      "// wsnstatic:allow(no-wallclock): wrong spelling for a per-file rule\n"
      "#include \"experiment/sweep.h\"\n"
      "int bad = std::rand();\n";
  const wsnlint::RunResult result =
      wsnlint::Check({{"src/channel/medium.cpp", source}});
  EXPECT_EQ(FormatFindings(result.findings),
            "src/channel/medium.cpp:1:allow-directive: unknown rule id "
            "'layer-dag' in wsnlint:allow\n"
            "src/channel/medium.cpp:2:allow-directive: unknown rule id "
            "'no-wallclock' in wsnstatic:allow\n"
            "src/channel/medium.cpp:3:layer-dag: include "
            "\"experiment/sweep.h\" points upward: channel (level 2) may not "
            "depend on experiment (level 8); invert the dependency or add a "
            "reviewed escape hatch in tools/wsnlint/checks.cpp\n"
            "src/channel/medium.cpp:4:no-wallclock: wall-clock/ambient entropy "
            "is forbidden in src/; draw from the seeded util::Rng lineage so "
            "runs replay bit-identically\n");
}

TEST(Static, ListRulesCoversEveryFamily) {
  std::vector<std::string> per_file;
  std::vector<std::string> cross_tu;
  for (const wsnlint::RuleInfo& rule : wsnlint::Rules()) {
    const bool file_scope = rule.scope == wsnlint::Scope::kPerFile;
    EXPECT_EQ(rule.prefix, file_scope ? "wsnlint" : "wsnstatic") << rule.id;
    (file_scope ? per_file : cross_tu).push_back(rule.id);
  }
  const std::vector<std::string> expected_per_file = {
      "no-wallclock", "no-unordered-output", "no-raw-parse",
      "header-hygiene", "no-float-eq", "no-naked-new", "no-hot-alloc"};
  const std::vector<std::string> expected_cross_tu = {
      "serdes-complete", "hot-path-transitive", "lp-isolation", "layer-dag"};
  EXPECT_EQ(per_file, expected_per_file);
  EXPECT_EQ(cross_tu, expected_cross_tu);
  EXPECT_EQ(wsnlint::Rules().size(), 11u);
}

}  // namespace
