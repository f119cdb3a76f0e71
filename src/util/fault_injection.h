// Deterministic fault injection for robustness tests.
//
// Long campaigns die in ways unit tests never exercise by accident:
// ENOSPC mid-CSV, a worker task throwing halfway through a sweep, a crash
// between two checkpoint writes. This layer lets tests schedule those
// failures *on purpose* and deterministically: instrumented operations
// (CSV writes, checkpoint writes, sweep worker tasks) ask the process-wide
// injector whether their next operation should fail, and the injector
// answers from a per-site schedule armed by the test.
//
// Design constraints:
//  * Near-free when disarmed: the production path costs one relaxed atomic
//    load (Armed()); no locks, no map lookups.
//  * Deterministic: schedules are keyed to per-site operation ordinals
//    (FailNth / FailAfter) or to a seeded hash of the ordinal
//    (FailWithProbability), never to wall clock or thread identity. The
//    same schedule against the same serial operation stream fails the same
//    operations every run.
//  * Thread-safe: instrumented sites are hit concurrently from sweep
//    workers; ordinal accounting is mutex-guarded.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>

namespace wsnlink::util {

/// Thrown by MaybeThrow-style instrumentation points so tests (and the
/// graceful-degradation paths) can tell injected failures from real ones.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what) : std::runtime_error(what) {}
};

/// Per-site failure schedules. One process-wide instance (Global()) serves
/// every instrumentation point; tests arm it through ScopedFaultInjection.
class FaultInjector {
 public:
  /// Every operation at `site` with ordinal >= `after` fails (ordinals
  /// count from 0). `after == 0` fails every operation — the disk-full
  /// model: once the disk is full, it stays full.
  void FailAfter(std::string_view site, std::uint64_t after);

  /// Exactly the operation with ordinal == `nth` fails — the partial-write
  /// / transient-error model.
  void FailNth(std::string_view site, std::uint64_t nth);

  /// Each operation fails independently with `probability`, decided by a
  /// seeded hash of the operation ordinal (deterministic given the seed
  /// and the site's serial operation order).
  void FailWithProbability(std::string_view site, double probability,
                           std::uint64_t seed);

  /// Drops every schedule and every ordinal count; disarms the fast path.
  void Clear();

  /// Called by an instrumentation point: counts one operation at `site`
  /// and returns true when the schedule says it must fail. Sites without a
  /// schedule never fail (and are not counted).
  [[nodiscard]] bool ShouldFail(std::string_view site);

  /// Throws InjectedFault when ShouldFail(site) says so.
  void MaybeThrow(std::string_view site);

  /// Operations seen / failures injected at `site` since the last Clear().
  [[nodiscard]] std::uint64_t Operations(std::string_view site) const;
  [[nodiscard]] std::uint64_t Injected(std::string_view site) const;

  /// True when any schedule is armed. The production fast path: check this
  /// before calling ShouldFail so disarmed runs pay one atomic load.
  [[nodiscard]] bool Armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// The process-wide injector every instrumentation point consults.
  [[nodiscard]] static FaultInjector& Global();

 private:
  enum class Kind { kAfter, kNth, kProbability };

  struct Rule {
    Kind kind = Kind::kAfter;
    std::uint64_t threshold = 0;
    double probability = 0.0;
    std::uint64_t seed = 0;
    std::uint64_t operations = 0;
    std::uint64_t injected = 0;
  };

  void Arm(std::string_view site, Rule rule);

  mutable std::mutex mutex_;
  std::atomic<bool> armed_{false};
  std::map<std::string, Rule, std::less<>> rules_;
};

/// RAII guard for tests: clears the global injector on entry and exit so a
/// failing test can never leak an armed schedule into the next one.
class ScopedFaultInjection {
 public:
  // wsnstatic:allow(unreached): test-only; the tests' injector guard
  ScopedFaultInjection() { FaultInjector::Global().Clear(); }
  // wsnstatic:allow(unreached): test-only; the tests' injector guard
  ~ScopedFaultInjection() { FaultInjector::Global().Clear(); }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

  // wsnstatic:allow(unreached): test-only; tests arm schedules through it
  [[nodiscard]] FaultInjector* operator->() const noexcept {
    return &FaultInjector::Global();
  }
};

}  // namespace wsnlink::util
