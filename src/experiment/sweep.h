// Parameter-sweep driver.
//
// Runs a list of configurations through the link simulator and collects the
// measured metric vector for each. Runs are embarrassingly parallel (each
// owns its simulator and RNG streams) so the driver fans out over the
// process-wide work-stealing pool (util::ThreadPool::Shared()) in batched
// config chunks — no per-sweep thread spawn. Results are deterministic in
// (base_seed, config order) regardless of worker count or chunk size: the
// i-th result always comes from seed SweepSeed(base_seed, i) and lands in
// the i-th output slot.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/models/model_set.h"
#include "core/stack_config.h"
#include "metrics/link_metrics.h"
#include "node/link_simulation.h"
#include "trace/trace.h"

namespace wsnlink::experiment {

/// One sweep result.
struct SweepPoint {
  core::StackConfig config;
  metrics::LinkMetrics measured;
  /// Ground-truth mean SNR of the simulated link.
  double mean_snr_db = 0.0;
  /// False when the analytic prescreen skipped this configuration; the
  /// measured fields then hold the ModelSet prediction instead of
  /// simulation output (see SweepOptions::analytic_prescreen).
  bool simulated = true;
  /// Per-layer counter roll-up of the run, sorted by name (empty when
  /// SweepOptions::collect_counters is false or the run was prescreened).
  std::vector<trace::CounterSample> counters;
  /// The run's full event stream (only when SweepOptions::capture_traces;
  /// each run owns its tracer, so capture stays deterministic under any
  /// thread count).
  std::vector<trace::TraceEvent> events;
  /// True when this config's worker task threw: `error` carries the
  /// structured message, the measured fields are left zeroed, and the
  /// sweep continues — one bad config never tears down the campaign
  /// (the campaign counts these as "campaign.configs_failed").
  bool failed = false;
  std::string error;
};

/// Sweep options shared by every run.
struct SweepOptions {
  std::uint64_t base_seed = 1;
  /// Packets per configuration (paper: 4500; figure benches use less).
  int packet_count = 500;
  /// Upper bound on concurrent runs; 0 = the shared pool's full width.
  /// The executor never spawns threads: parallelism is capped by the
  /// process-wide pool, so asking for more than the hardware has changes
  /// nothing (and never changes results — only wall-clock).
  unsigned threads = 0;
  /// Configs dispatched to a worker per grab; 0 = auto (sized so each
  /// active worker gets ~16 grabs, capped at 64). Chunking amortises
  /// cursor contention; results are chunk-size invariant.
  std::size_t chunk = 0;
  /// Forwarded per-run simulation switches.
  bool analytic_ber = false;
  bool disable_temporal_shadowing = false;
  bool disable_interference = false;
  /// Collect per-layer counters into each SweepPoint.
  bool collect_counters = true;
  /// Capture each run's event trace into SweepPoint::events. Off by
  /// default: a trace is ~100 bytes/event and campaign sweeps are large.
  bool capture_traces = false;
  /// Ring capacity per run when capture_traces is set.
  std::size_t trace_capacity = trace::Tracer::kDefaultCapacity;
  /// Analytic fast-path (opt-in): before simulating, predict every config
  /// with the paper's Eq. 3/7/8 ModelSet and skip configs that are
  /// epsilon-dominated by another config on (energy, goodput, delay,
  /// loss). Skipped points carry the model prediction with
  /// `simulated == false`; simulated points are bit-identical to the same
  /// configs in an un-prescreened sweep (seeds stay keyed to the original
  /// index). Meant for optimisation workloads where only the frontier
  /// region earns simulated packets.
  bool analytic_prescreen = false;
  /// Dominance slack for the prescreen: a config is kept unless another
  /// config is better by more than this relative margin on *every*
  /// objective. 0 keeps exactly the predicted Pareto front; larger values
  /// keep a thicker near-front band (default 10%).
  double prescreen_slack = 0.10;
  /// Optional progress callback (invoked from worker threads with the
  /// number of completed runs; must be thread-safe). May be empty.
  std::function<void(std::size_t done, std::size_t total)> progress;
  /// Resume support: indices marked true are not run at all — their
  /// SweepPoint keeps only `config`, and the caller is expected to fill
  /// them from persisted state (see experiment/checkpoint.h). Empty = run
  /// everything; otherwise must parallel `configs`. Skipped indices keep
  /// their original-index seeds off the table entirely, so the simulated
  /// remainder stays bit-identical to an unskipped sweep.
  std::vector<bool> skip;
  /// Completion hook: invoked from worker threads immediately after
  /// points[index] is finalised (simulated, prescreened or failed — not
  /// for skipped/cancelled indices). Must be thread-safe. The campaign's
  /// checkpoint writer hangs off this.
  std::function<void(std::size_t index, const SweepPoint& point)> on_point;
  /// Cooperative cancellation, polled before each config starts: once it
  /// returns true, configs not yet started are left unrun (no on_point, no
  /// progress). Must be thread-safe. Models budgeted / interruptible runs.
  std::function<bool()> cancel;
};

/// Seed for the i-th configuration of a sweep (exposed so single runs can
/// be reproduced outside the sweep).
[[nodiscard]] std::uint64_t SweepSeed(std::uint64_t base_seed,
                                      std::size_t index) noexcept;

/// The effective chunk size a sweep of `total` configs uses (exposed for
/// the chunk-invariance tests and the perf bench).
[[nodiscard]] std::size_t SweepChunkSize(const SweepOptions& options,
                                         std::size_t total) noexcept;

/// The analytic prescreen of a config list (see
/// SweepOptions::analytic_prescreen); both vectors parallel the configs.
struct Prescreen {
  std::vector<bool> keep;  ///< true = simulate
  /// The ModelSet prediction the screen costed each config with; skipped
  /// points are filled from it.
  std::vector<core::models::MetricPrediction> predictions;
};

/// The prescreen's keep/skip decisions and predictions for `configs`.
/// Exposed so tests and benches can inspect the screen without running it.
[[nodiscard]] Prescreen PrescreenConfigs(
    const std::vector<core::StackConfig>& configs, double slack);

/// Runs every configuration; the result vector parallels `configs`.
[[nodiscard]] std::vector<SweepPoint> RunSweep(
    const std::vector<core::StackConfig>& configs, const SweepOptions& options);

/// Convenience: per-attempt logs are often needed by figure benches; this
/// variant returns the full simulation results instead of just metrics
/// (the analytic prescreen does not apply — raw logs require simulation).
[[nodiscard]] std::vector<node::SimulationResult> RunSweepRaw(
    const std::vector<core::StackConfig>& configs, const SweepOptions& options);

}  // namespace wsnlink::experiment
