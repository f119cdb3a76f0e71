// Fixture: a wsnlint:hot-path root whose banned-API violations live two
// calls away in other translation units. no-hot-alloc polices this file
// itself; hot-path-transitive must follow the calls out of it.
// wsnlint:hot-path

namespace fixture {

int FormatRow(int config);
int PureMix(int value);

int RunHotLoop(int configs) {
  int acc = 0;
  for (int i = 0; i < configs; ++i) {
    acc += FormatRow(i);
    acc += PureMix(acc);
  }
  return acc;
}

}  // namespace fixture
