// Shared pieces of the wsnlink benchmark: clocks, sample statistics, the
// report every workload fills, the span recorder used by traced runs, and
// readers for the process counters the benchmark samples from outside.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "trace/counters.h"
#include "util/rng.h"

namespace wsnbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double Seconds(Clock::time_point a, Clock::time_point b);
[[nodiscard]] double Millis(Clock::time_point a, Clock::time_point b);

/// Nearest-rank percentile (p in [0,1]) of `values`; 0 for an empty set.
[[nodiscard]] double Percentile(std::vector<double> values, double p);
[[nodiscard]] double Median(std::vector<double> values);

/// Process CPU seconds (all threads) and the kernel's write-byte counter
/// (`wchar` in /proc/self/io; 0 where the file is absent).
[[nodiscard]] double ProcessCpuSeconds();
[[nodiscard]] std::uint64_t WrittenBytes();
[[nodiscard]] double PeakRssMiB();

/// FNV-1a 64 over `bytes` rendered as 16 hex digits.
[[nodiscard]] std::string Digest(const std::string& bytes);

/// Seed-derived generator for benchmark inputs (never handed to the program).
[[nodiscard]] wsnlink::util::Rng InputRng(std::uint64_t seed,
                                          std::uint64_t stream);

template <typename T>
void Shuffle(std::vector<T>& values, wsnlink::util::Rng& rng) {
  for (std::size_t i = values.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(i - 1)));
    std::swap(values[i - 1], values[j]);
  }
}

/// Pause between two set-up repetitions. Spread over time, the repetitions
/// whose median is reported are not all moved by one short burst of other
/// work on the host.
inline constexpr std::chrono::milliseconds kSetupGap{20};

/// Run settings shared by every workload.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Pool width (the program's `threads` knob); defaults to nproc - 1.
  unsigned threads = 1;
  /// Self-test sizes instead of measurement sizes.
  bool tiny = false;
  /// Scratch directory inside the checkout (created and removed by main).
  std::string work_dir;
  /// Where a traced run writes its Chrome trace JSON.
  std::string trace_path;
};

/// What a workload hands back: metrics by name with their unit, the
/// operation tally, the output-check verdict and free-form notes.
struct Report {
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> check_failures;
  std::map<std::string, std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Value{value, unit};
  }
  /// Records an output check; a false `ok` fails the run.
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      check_failures.push_back(what);
    }
  }
};

// ---------------------------------------------------------------------------
// Span recorder (traced runs only).
//
// A span is recorded around one call into a layer's public function. Spans
// carry the id of the span that caused them and the config/rung/request id
// their children share. They stay in memory and are exported as Chrome
// trace_event JSON when the run ends.

struct Span {
  const char* name = "";
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t item = 0;
  std::uint32_t thread = 0;
};

class SpanLog {
 public:
  static SpanLog& Get();

  [[nodiscard]] bool Enabled() const noexcept { return enabled_.load(); }
  void Enable(bool on) noexcept { enabled_.store(on); }

  [[nodiscard]] std::int64_t Now() const;
  [[nodiscard]] std::uint64_t NextId();
  void Add(const Span& span);
  /// The calling thread's innermost open span (0 at top level).
  [[nodiscard]] static std::uint64_t Current();
  static void SetCurrent(std::uint64_t id);

  [[nodiscard]] std::vector<Span> Snapshot();
  void Clear();

  /// Writes every span as Chrome trace JSON.
  void WriteChrome(const std::string& path);

 private:
  SpanLog() = default;
  std::atomic<bool> enabled_{false};
  Clock::time_point origin_ = Clock::now();
  std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span. A no-op when tracing is off. `parent` defaults to the calling
/// thread's open span; pass it explicitly when the work hops threads.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* layer, std::uint64_t item = 0,
             std::uint64_t parent = ~0ULL);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t Id() const noexcept { return span_.id; }

 private:
  Span span_;
  std::uint64_t saved_current_ = 0;
  bool on_ = false;
};

/// Per-layer self time (span duration minus the time its children cover),
/// the share of [begin, end] that no span covers, and per-name durations.
struct SpanSummary {
  std::map<std::string, double> self_ms_by_layer;
  std::map<std::string, std::vector<double>> durations_us_by_name;
  double uncovered_share = 0.0;
};
[[nodiscard]] SpanSummary Summarize(const std::vector<Span>& spans,
                                    std::int64_t begin_ns,
                                    std::int64_t end_ns);

/// Reports `trace.self_ms.<layer>` for every layer of SpanLayers() (0 for a
/// layer no span was recorded in) and `trace.uncovered_share`.
void SetSpanSummary(Report& report, const SpanSummary& summary);

/// Tracing overhead of an instrumented section: the median wall time of
/// `reps` runs with spans on over the median of `reps` runs with spans off,
/// minus 1. The runs alternate off/on; the spans they record are discarded,
/// so call it after the traced pass has been summarized and written.
[[nodiscard]] double TracingOverhead(const std::function<void()>& section,
                                     int reps);

// ---------------------------------------------------------------------------
// Exact work counts read from the counters the program already returns.

/// Sums counters by name.
void Accumulate(std::map<std::string, std::uint64_t>& into,
                const std::vector<wsnlink::trace::CounterSample>& samples);

/// Fills the exact-count layer ratios (sim/mac/link/phy/app) from summed
/// counters; every name is set, 0 when its base is 0.
void SetCountRatios(Report& report,
                    const std::map<std::string, std::uint64_t>& counts);

/// Sets each named metric to 0: the per-layer metrics a workload has no
/// path for (BENCHMARK.json lists every name for every workload).
void SetNotApplicable(
    Report& report,
    const std::vector<std::pair<const char*, const char*>>& names_and_units);
/// Layers whose self time a traced run reports.
[[nodiscard]] const std::vector<std::string>& SpanLayers();

/// Workload entry points.
[[nodiscard]] Report RunCampaignWorkload(const RunConfig& config);
[[nodiscard]] Report RunContentionWorkload(const RunConfig& config);
[[nodiscard]] Report RunServeWorkload(const RunConfig& config);

}  // namespace wsnbench
