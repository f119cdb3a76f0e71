// Tests for the end-to-end simulation runner.
#include <gtest/gtest.h>

#include "node/link_simulation.h"

namespace wsnlink::node {
namespace {

SimulationOptions StrongLinkOptions() {
  SimulationOptions options;
  options.config.distance_m = 10.0;
  options.config.pa_level = 31;
  options.config.max_tries = 3;
  options.config.queue_capacity = 10;
  options.config.pkt_interval_ms = 50.0;
  options.config.payload_bytes = 60;
  options.packet_count = 200;
  options.seed = 77;
  return options;
}

TEST(LinkSimulation, RunsToCompletion) {
  const auto result = RunLinkSimulation(StrongLinkOptions());
  EXPECT_EQ(result.generated, 200);
  EXPECT_EQ(result.log.Packets().size(), 200u);
  // Strong link: near-perfect delivery.
  EXPECT_GT(result.unique_delivered, 195u);
  EXPECT_GT(result.end_time, 0);
  // The MAC runs its ladder inline on a private link: at least one arrival
  // event and one completion event per generated packet still go through
  // the simulator.
  EXPECT_GE(result.events_executed, 2u * 200u);
}

TEST(LinkSimulation, DeterministicForSameSeed) {
  const auto a = RunLinkSimulation(StrongLinkOptions());
  const auto b = RunLinkSimulation(StrongLinkOptions());
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.unique_delivered, b.unique_delivered);
  EXPECT_EQ(a.events_executed, b.events_executed);
  ASSERT_EQ(a.log.Packets().size(), b.log.Packets().size());
  for (std::size_t i = 0; i < a.log.Packets().size(); ++i) {
    EXPECT_EQ(a.log.Packets()[i].completed_at, b.log.Packets()[i].completed_at);
    EXPECT_EQ(a.log.Packets()[i].tries, b.log.Packets()[i].tries);
  }
}

TEST(LinkSimulation, DifferentSeedsDiffer) {
  auto options = StrongLinkOptions();
  const auto a = RunLinkSimulation(options);
  options.seed = 78;
  const auto b = RunLinkSimulation(options);
  EXPECT_NE(a.end_time, b.end_time);
}

TEST(LinkSimulation, MeanSnrMatchesChannelArithmetic) {
  const auto options = StrongLinkOptions();
  const auto result = RunLinkSimulation(options);
  // 0 dBm - (38 + 21.9*log10(10)) = -59.9 dBm; quiet floor -95.6.
  EXPECT_NEAR(result.mean_snr_db, -59.9 + 95.6, 1e-6);
  // Receiver-observed SNR should scatter around the ground truth.
  EXPECT_NEAR(result.snr_stats.Mean(), result.mean_snr_db, 1.5);
}

TEST(LinkSimulation, ChannelAblationSwitchesApply) {
  auto options = StrongLinkOptions();
  options.disable_temporal_shadowing = true;
  options.disable_interference = true;
  const auto result = RunLinkSimulation(options);
  // Without shadowing, receiver RSSI variation collapses to noise-floor
  // variation only.
  EXPECT_LT(result.rssi_stats.StdDev(), 0.2);
  EXPECT_EQ(result.cca_busy, 0u);
}

TEST(LinkSimulation, SpatialShadowDegradesDelivery) {
  auto options = StrongLinkOptions();
  options.config.distance_m = 30.0;
  options.config.pa_level = 11;
  const auto nominal = RunLinkSimulation(options);
  options.spatial_shadow_db = -10.0;
  const auto faded = RunLinkSimulation(options);
  EXPECT_LT(faded.unique_delivered, nominal.unique_delivered);
  EXPECT_NEAR(nominal.mean_snr_db - faded.mean_snr_db, 10.0, 1e-9);
}

TEST(LinkSimulation, InvalidOptionsRejected) {
  auto options = StrongLinkOptions();
  options.packet_count = 0;
  EXPECT_THROW((void)RunLinkSimulation(options), std::invalid_argument);
  options = StrongLinkOptions();
  options.config.pa_level = 10;
  EXPECT_THROW((void)RunLinkSimulation(options), std::invalid_argument);
}

TEST(LinkSimulation, SaturatedQueueDropsArePlentiful) {
  SimulationOptions options;
  options.config.distance_m = 35.0;
  options.config.pa_level = 7;        // grey zone
  options.config.max_tries = 8;       // long service times
  options.config.queue_capacity = 1;  // no buffering
  options.config.pkt_interval_ms = 10.0;  // rho >> 1
  options.config.payload_bytes = 110;
  options.packet_count = 300;
  options.seed = 9;
  const auto result = RunLinkSimulation(options);
  int drops = 0;
  for (const auto& p : result.log.Packets()) {
    if (p.dropped_at_queue) ++drops;
  }
  EXPECT_GT(drops, 100);
}

TEST(LinkSimulation, AnalyticBerSharperThanCalibrated) {
  // At a mid-grey SNR, the analytic curve delivers either almost all or
  // almost nothing; the calibrated curve sits in between. Use a config
  // whose calibrated PER is solidly intermediate.
  SimulationOptions options;
  options.config.distance_m = 35.0;
  options.config.pa_level = 11;  // ~13 dB
  options.config.max_tries = 1;
  options.config.queue_capacity = 1;
  options.config.pkt_interval_ms = 100.0;
  options.config.payload_bytes = 110;
  options.packet_count = 400;
  options.seed = 10;
  options.disable_temporal_shadowing = true;
  options.disable_interference = true;

  const auto calibrated = RunLinkSimulation(options);
  options.analytic_ber = true;
  const auto analytic = RunLinkSimulation(options);

  const double cal_rate = static_cast<double>(calibrated.unique_delivered) /
                          calibrated.generated;
  const double ana_rate =
      static_cast<double>(analytic.unique_delivered) / analytic.generated;
  // Calibrated: intermediate loss. Analytic at 13 dB: essentially lossless.
  EXPECT_GT(cal_rate, 0.5);
  EXPECT_LT(cal_rate, 0.95);
  EXPECT_GT(ana_rate, 0.99);
}

}  // namespace
}  // namespace wsnlink::node
