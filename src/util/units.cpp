#include "util/units.h"

#include <cmath>
#include <stdexcept>

namespace wsnlink::util {

double DbmToMilliwatt(double dbm) noexcept { return std::pow(10.0, dbm / 10.0); }

double MilliwattToDbm(double mw) {
  if (mw <= 0.0) throw std::invalid_argument("MilliwattToDbm: power must be > 0");
  return 10.0 * std::log10(mw);
}

double AddPowersDbm(double a_dbm, double b_dbm) {
  return MilliwattToDbm(DbmToMilliwatt(a_dbm) + DbmToMilliwatt(b_dbm));
}

double DbToLinear(double db) noexcept { return std::pow(10.0, db / 10.0); }

}  // namespace wsnlink::util
