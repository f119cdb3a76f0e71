// Fixture: wall-clock read two calls below a hot root — must be flagged
// as hot-path-transitive ambient entropy (and, being in src/, no-wallclock).
#include <chrono>

namespace fixture {

long StampNow() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}

}  // namespace fixture
