#include "util/fault_injection.h"

#include <stdexcept>

#include "util/rng.h"

namespace wsnlink::util {

namespace {

/// Deterministic per-operation coin flip: hash (seed, ordinal) to [0, 1).
double OrdinalUniform(std::uint64_t seed, std::uint64_t ordinal) {
  std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ULL * (ordinal + 1));
  const std::uint64_t bits = SplitMix64(state);
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

// wsnstatic:allow(unreached): test-only; the schedule setters below arm here
void FaultInjector::Arm(std::string_view site, Rule rule) {
  std::lock_guard<std::mutex> lock(mutex_);
  rules_.insert_or_assign(std::string(site), rule);
  armed_.store(true, std::memory_order_relaxed);
}

// wsnstatic:allow(unreached): test-only; tests arm disk-full schedules
void FaultInjector::FailAfter(std::string_view site, std::uint64_t after) {
  Rule rule;
  rule.kind = Kind::kAfter;
  rule.threshold = after;
  Arm(site, rule);
}

// wsnstatic:allow(unreached): test-only; tests arm one-shot write faults
void FaultInjector::FailNth(std::string_view site, std::uint64_t nth) {
  Rule rule;
  rule.kind = Kind::kNth;
  rule.threshold = nth;
  Arm(site, rule);
}

// wsnstatic:allow(unreached): test-only; tests arm seeded random faults
void FaultInjector::FailWithProbability(std::string_view site,
                                        double probability,
                                        std::uint64_t seed) {
  if (probability < 0.0 || probability > 1.0) {
    throw std::invalid_argument(
        "FaultInjector: probability must be in [0, 1]");
  }
  Rule rule;
  rule.kind = Kind::kProbability;
  rule.probability = probability;
  rule.seed = seed;
  Arm(site, rule);
}

void FaultInjector::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  rules_.clear();
  armed_.store(false, std::memory_order_relaxed);
}

bool FaultInjector::ShouldFail(std::string_view site) {
  if (!Armed()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = rules_.find(site);
  if (it == rules_.end()) return false;
  Rule& rule = it->second;
  const std::uint64_t ordinal = rule.operations++;
  bool fail = false;
  switch (rule.kind) {
    case Kind::kAfter:
      fail = ordinal >= rule.threshold;
      break;
    case Kind::kNth:
      fail = ordinal == rule.threshold;
      break;
    case Kind::kProbability:
      fail = OrdinalUniform(rule.seed, ordinal) < rule.probability;
      break;
  }
  if (fail) ++rule.injected;
  return fail;
}

void FaultInjector::MaybeThrow(std::string_view site) {
  if (ShouldFail(site)) {
    throw InjectedFault("injected fault at " + std::string(site));
  }
}

// wsnstatic:allow(unreached): test-only; FaultInjector tests count site ops
std::uint64_t FaultInjector::Operations(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = rules_.find(site);
  return it == rules_.end() ? 0 : it->second.operations;
}

// wsnstatic:allow(unreached): test-only; tests count injected faults
std::uint64_t FaultInjector::Injected(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = rules_.find(site);
  return it == rules_.end() ? 0 : it->second.injected;
}

FaultInjector& FaultInjector::Global() {
  // wsnstatic:allow(lp-isolation): test-only fault-injection registry, mutex-guarded; disabled (empty) in production runs
  static FaultInjector injector;
  return injector;
}

}  // namespace wsnlink::util
