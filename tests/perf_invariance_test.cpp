// Property suite locking down the sweep-executor overhaul.
//
// The performance work (shared pool, chunked dispatch, inline MAC ladder,
// analytic prescreen) is only admissible because it changes *nothing*
// observable. This file pins that:
//  * bit-identical metrics, counters and traces across worker counts
//    {1, 4, 16} crossed with several chunk sizes;
//  * a traced sweep runs the same code path as an untraced one: same
//    metrics, every counter (the kernel's sim.* ones included) and the
//    same executed-event count;
//  * analytic prescreen leaves every simulated point bit-identical to the
//    same index in an un-prescreened sweep, and every skipped point equal
//    to the scalar ModelSet::Predict of its config;
// plus the physical monotonicity properties the paper's models rely on:
// PER non-increasing in SNR, every served packet uses >= 1 transmission,
// PLR_radio non-increasing in N_maxTries, and energy per delivered bit
// minimised at an interior payload size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/models/model_set.h"
#include "core/opt/config_space.h"
#include "experiment/sweep.h"
#include "node/link_simulation.h"
#include "trace/trace.h"

namespace wsnlink {
namespace {

std::vector<core::StackConfig> SliceOfTableI(std::size_t count) {
  const auto space = core::opt::ConfigSpace::PaperTableI();
  std::vector<core::StackConfig> configs;
  const std::size_t stride = space.Size() / count + 1;
  for (std::size_t i = 0; i < space.Size(); i += stride) {
    configs.push_back(space.At(i));
  }
  return configs;
}

/// Field-by-field bit-exact metric comparison (EXPECT_EQ on doubles is
/// deliberate: any divergence is a determinism bug, not noise).
void ExpectSamePoint(const experiment::SweepPoint& a,
                     const experiment::SweepPoint& b, std::size_t i) {
  EXPECT_EQ(a.measured.generated, b.measured.generated) << "config " << i;
  EXPECT_EQ(a.measured.delivered_unique, b.measured.delivered_unique)
      << "config " << i;
  EXPECT_EQ(a.measured.per, b.measured.per) << "config " << i;
  EXPECT_EQ(a.measured.goodput_kbps, b.measured.goodput_kbps)
      << "config " << i;
  EXPECT_EQ(a.measured.energy_uj_per_bit, b.measured.energy_uj_per_bit)
      << "config " << i;
  EXPECT_EQ(a.measured.mean_delay_ms, b.measured.mean_delay_ms)
      << "config " << i;
  EXPECT_EQ(a.measured.p99_delay_ms, b.measured.p99_delay_ms)
      << "config " << i;
  EXPECT_EQ(a.measured.plr_queue, b.measured.plr_queue) << "config " << i;
  EXPECT_EQ(a.measured.plr_radio, b.measured.plr_radio) << "config " << i;
  EXPECT_EQ(a.measured.mean_tries_all, b.measured.mean_tries_all)
      << "config " << i;
  EXPECT_EQ(a.mean_snr_db, b.mean_snr_db) << "config " << i;
  EXPECT_EQ(a.simulated, b.simulated) << "config " << i;
}

TEST(PerfInvariance, ThreadAndChunkCrossProductIsBitIdentical) {
  const auto configs = SliceOfTableI(8);
  ASSERT_GE(configs.size(), 6u);

  experiment::SweepOptions reference_options;
  reference_options.base_seed = 20150629;
  reference_options.packet_count = 100;
  reference_options.threads = 1;
  reference_options.chunk = 1;
  reference_options.capture_traces = true;
  const auto reference = RunSweep(configs, reference_options);

  const unsigned thread_counts[] = {1, 4, 16};
  const std::size_t chunk_sizes[] = {0, 1, 3, 64};
  for (const unsigned threads : thread_counts) {
    for (const std::size_t chunk : chunk_sizes) {
      auto options = reference_options;
      options.threads = threads;
      options.chunk = chunk;
      const auto run = RunSweep(configs, options);
      ASSERT_EQ(run.size(), reference.size())
          << "threads=" << threads << " chunk=" << chunk;
      for (std::size_t i = 0; i < run.size(); ++i) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " chunk=" + std::to_string(chunk));
        ExpectSamePoint(reference[i], run[i], i);
        EXPECT_TRUE(reference[i].counters == run[i].counters)
            << "config " << i;
        EXPECT_TRUE(reference[i].events == run[i].events) << "config " << i;
      }
    }
  }
}

TEST(PerfInvariance, EffectiveChunkSizeIsSaneAndBounded) {
  experiment::SweepOptions options;
  // Explicit chunk requests are honoured as-is.
  options.chunk = 7;
  EXPECT_EQ(experiment::SweepChunkSize(options, 1000), 7u);
  // Auto chunking never returns 0 and never exceeds its cap.
  options.chunk = 0;
  for (const std::size_t total : {1u, 2u, 17u, 500u, 5000u, 100000u}) {
    const auto chunk = experiment::SweepChunkSize(options, total);
    EXPECT_GE(chunk, 1u) << "total " << total;
    EXPECT_LE(chunk, 64u) << "total " << total;
  }
}

// Tracing only observes: the traced sweep runs CsmaMac's inline ladder and
// the worker scratch exactly like the untraced one, so every counter —
// the simulator's own event bookkeeping included — must agree.
TEST(PerfInvariance, TracedAndUntracedPathsAgree) {
  const auto configs = SliceOfTableI(6);

  experiment::SweepOptions options;
  options.base_seed = 424242;
  options.packet_count = 150;
  options.capture_traces = false;
  const auto fast = RunSweep(configs, options);

  options.capture_traces = true;
  const auto traced = RunSweep(configs, options);

  ASSERT_EQ(fast.size(), traced.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    ExpectSamePoint(fast[i], traced[i], i);
    EXPECT_FALSE(fast[i].counters.empty()) << "config " << i;
    EXPECT_TRUE(fast[i].counters == traced[i].counters) << "config " << i;
    EXPECT_TRUE(fast[i].events.empty()) << "config " << i;
    EXPECT_FALSE(traced[i].events.empty()) << "config " << i;
  }

  // The same holds for a single run's executed-event count.
  for (std::size_t i = 0; i < configs.size(); ++i) {
    node::SimulationOptions run;
    run.config = configs[i];
    run.seed = experiment::SweepSeed(options.base_seed, i);
    run.packet_count = options.packet_count;
    const auto untraced_run = node::RunLinkSimulation(run);
    trace::Tracer tracer;
    run.tracer = &tracer;
    const auto traced_run = node::RunLinkSimulation(run);
    EXPECT_EQ(untraced_run.events_executed, traced_run.events_executed)
        << "config " << i;
    EXPECT_TRUE(untraced_run.counters == traced_run.counters) << "config " << i;
  }
}

// A traced sweep attaches its per-run tracer to the worker's recycled
// scratch; nothing of it may survive into the next run on that thread (a
// stale tracer pointer would write into a freed ring, which the sanitizer
// jobs catch, or change the untraced run's results).
TEST(PerfInvariance, TracedSweepLeavesNoTracerInWorkerScratch) {
  const auto configs = SliceOfTableI(4);

  experiment::SweepOptions untraced;
  untraced.base_seed = 99;
  untraced.packet_count = 60;
  untraced.threads = 1;
  untraced.collect_counters = false;
  const auto before = RunSweep(configs, untraced);

  auto traced = untraced;
  traced.capture_traces = true;
  traced.trace_capacity = 64;  // small ring: every run wraps it
  const auto with_traces = RunSweep(configs, traced);

  const auto after = RunSweep(configs, untraced);
  ASSERT_EQ(before.size(), after.size());
  ASSERT_EQ(before.size(), with_traces.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    ExpectSamePoint(before[i], with_traces[i], i);
    ExpectSamePoint(before[i], after[i], i);
    EXPECT_EQ(with_traces[i].events.size(), 64u) << "config " << i;
    EXPECT_TRUE(after[i].events.empty()) << "config " << i;
    EXPECT_TRUE(after[i].counters.empty()) << "config " << i;
  }
}

TEST(PerfInvariance, PrescreenKeepsSimulatedPointsBitIdentical) {
  const auto configs = SliceOfTableI(40);
  const auto screen = experiment::PrescreenConfigs(configs, 0.10);
  const auto& mask = screen.keep;
  ASSERT_EQ(screen.predictions.size(), configs.size());
  const auto kept = static_cast<std::size_t>(
      std::count(mask.begin(), mask.end(), true));
  // The screen must actually screen: some configs simulated, some skipped.
  ASSERT_GT(kept, 0u);
  ASSERT_LT(kept, configs.size());

  experiment::SweepOptions options;
  options.base_seed = 7;
  options.packet_count = 80;
  const auto full = RunSweep(configs, options);

  options.analytic_prescreen = true;
  const auto screened = RunSweep(configs, options);

  ASSERT_EQ(full.size(), screened.size());
  const core::models::ModelSet models;
  for (std::size_t i = 0; i < screened.size(); ++i) {
    EXPECT_EQ(screened[i].simulated, mask[i]) << "config " << i;
    if (screened[i].simulated) {
      // Seeds are keyed to the original index, so surviving points are
      // the same bits as the un-prescreened sweep.
      ExpectSamePoint(full[i], screened[i], i);
    } else {
      // Skipped points carry the scalar model prediction, not zeros.
      const auto p = models.Predict(configs[i]);
      const auto& m = screened[i].measured;
      EXPECT_GT(m.goodput_kbps, 0.0) << "config " << i;
      EXPECT_EQ(m.generated, 0) << "config " << i;
      EXPECT_EQ(screened[i].mean_snr_db, p.snr_db) << "config " << i;
      EXPECT_EQ(m.mean_snr_db, p.snr_db) << "config " << i;
      EXPECT_EQ(m.per, p.per) << "config " << i;
      EXPECT_EQ(m.mean_tries_all, p.mean_tries) << "config " << i;
      EXPECT_EQ(m.mean_tries_acked, p.mean_tries) << "config " << i;
      EXPECT_EQ(m.mean_service_ms, p.service_time_ms) << "config " << i;
      EXPECT_EQ(m.utilization, p.utilization) << "config " << i;
      EXPECT_EQ(m.goodput_kbps, p.max_goodput_kbps) << "config " << i;
      EXPECT_EQ(m.energy_uj_per_bit, p.energy_uj_per_bit) << "config " << i;
      EXPECT_EQ(m.mean_delay_ms, p.total_delay_ms) << "config " << i;
      EXPECT_EQ(m.plr_radio, p.plr_radio) << "config " << i;
      EXPECT_EQ(m.plr_queue, p.plr_queue) << "config " << i;
      EXPECT_EQ(m.plr_total, p.plr_total) << "config " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Physical monotonicity properties (paper Sec. III): these hold for any
// correct executor and would catch a fast path that, say, reuses RNG draws
// or mis-orders attempts.
// ---------------------------------------------------------------------------

core::StackConfig GreyZoneConfig() {
  core::StackConfig config;
  config.distance_m = 35.0;
  config.pa_level = 11;
  config.max_tries = 3;
  config.queue_capacity = 10;
  config.pkt_interval_ms = 100.0;
  config.payload_bytes = 110;
  return config;
}

experiment::SweepOptions QuietChannelOptions() {
  experiment::SweepOptions options;
  options.base_seed = 31337;
  options.packet_count = 400;
  options.disable_temporal_shadowing = true;
  options.disable_interference = true;
  return options;
}

TEST(PerfInvariance, PerNonIncreasingInSnr) {
  // Walk P_tx up the CC2420 ladder at fixed distance: SNR rises with each
  // step, so attempt-level PER must fall (modulo sampling noise on a
  // quiet channel, hence the small slack).
  std::vector<core::StackConfig> configs;
  for (const int pa : {3, 7, 11, 15, 19, 23, 27, 31}) {
    auto config = GreyZoneConfig();
    config.pa_level = pa;
    configs.push_back(config);
  }
  const auto points = RunSweep(configs, QuietChannelOptions());
  ASSERT_EQ(points.size(), configs.size());
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].mean_snr_db, points[i - 1].mean_snr_db)
        << "pa step " << i;
    EXPECT_LE(points[i].measured.per, points[i - 1].measured.per + 0.03)
        << "PER rose from pa_level " << configs[i - 1].pa_level << " to "
        << configs[i].pa_level;
  }
  // And the endpoints are far apart: the ladder actually spans the grey
  // zone rather than saturating at one end.
  EXPECT_GT(points.front().measured.per, points.back().measured.per + 0.10);
}

TEST(PerfInvariance, EveryServedPacketUsesAtLeastOneTry) {
  std::vector<core::StackConfig> configs;
  for (const int pa : {3, 11, 31}) {
    auto config = GreyZoneConfig();
    config.pa_level = pa;
    configs.push_back(config);
  }
  auto options = QuietChannelOptions();
  options.packet_count = 200;
  const auto results = RunSweepRaw(configs, options);
  for (const auto& result : results) {
    for (const auto& packet : result.log.Packets()) {
      if (packet.dropped_at_queue) continue;
      EXPECT_GE(packet.tries, 1) << "served packet with zero transmissions";
    }
  }
}

TEST(PerfInvariance, RadioLossNonIncreasingInMaxTries) {
  std::vector<core::StackConfig> configs;
  for (const int tries : {1, 2, 4, 8}) {
    auto config = GreyZoneConfig();
    config.max_tries = tries;
    configs.push_back(config);
  }
  const auto points = RunSweep(configs, QuietChannelOptions());
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i].measured.plr_radio,
              points[i - 1].measured.plr_radio + 0.03)
        << "PLR_radio rose from max_tries " << configs[i - 1].max_tries
        << " to " << configs[i].max_tries;
  }
  EXPECT_GT(points.front().measured.plr_radio,
            points.back().measured.plr_radio);
}

TEST(PerfInvariance, EnergyPerBitMinimisedAtInteriorPayload) {
  // Tiny payloads waste energy on header overhead; maximal payloads on a
  // grey link waste it on retransmissions of long frames. The optimum is
  // interior (the paper's Fig. 9 trade-off).
  std::vector<core::StackConfig> configs;
  const std::vector<int> payloads = {4, 20, 40, 60, 80, 100, 114};
  for (const int payload : payloads) {
    auto config = GreyZoneConfig();
    config.payload_bytes = payload;
    configs.push_back(config);
  }
  const auto points = RunSweep(configs, QuietChannelOptions());
  std::size_t best = 0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].measured.energy_uj_per_bit <
        points[best].measured.energy_uj_per_bit) {
      best = i;
    }
  }
  EXPECT_GT(best, 0u) << "energy/bit minimised at the smallest payload";
  EXPECT_LT(best, payloads.size() - 1)
      << "energy/bit minimised at the largest payload";
}

}  // namespace
}  // namespace wsnlink
