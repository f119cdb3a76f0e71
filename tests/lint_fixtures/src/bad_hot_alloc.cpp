// Fixture: a hot-path file that allocates — every heap token is a finding.
// wsnlint:hot-path
#include <memory>

void Step(double* out) {
  auto scratch = std::make_unique<double[]>(64);
  double* raw = new double[64];
  out[0] = scratch[0] + raw[0];
  delete[] raw;
}
