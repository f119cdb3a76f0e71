// Fixture: the corpus's one binary. Its main roots the unreached rule and
// names every function the corpus defines under src/ (a function named as
// a value is an edge like a call), except src/util/dead_helper.cpp's.
int main() {
  const void* uses[] = {
      &MakeArena,     &FreeArena,       &Answer,         &AtOrigin,
      &IsUnit,        &Converged,       &Step,           &MakeBuffer,
      &FreeBuffer,    &DumpCounters,    &JitterSeed,     &Stamp,
      &NoiseSample,   &NearlyEqual,     &IsMillion,      &BelowHalf,
      &MakePool,      &Emplace,         &WriteStore,     &ReadStore,
      &WriteCleanStore, &ReadCleanStore, &RunHotLoop,    &CacheHits,
      &Help,          &WriteMarked,     &ReadMarked,     &SharedBump,
      &Advance,
  };
  return uses[0] == nullptr ? 1 : 0;
}
