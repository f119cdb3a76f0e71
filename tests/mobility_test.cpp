// Tests for the mobility model and its channel integration.
#include <gtest/gtest.h>

#include "channel/channel.h"
#include "channel/mobility.h"
#include "metrics/link_metrics.h"
#include "node/link_simulation.h"
#include "util/rng.h"

namespace wsnlink::channel {
namespace {

TEST(MobilityModel, DisabledStaysPut) {
  MobilityModel model(MobilityParams{}, 22.5);
  EXPECT_FALSE(model.Enabled());
  for (sim::Time t = 0; t < 100 * sim::kSecond; t += sim::kSecond) {
    EXPECT_DOUBLE_EQ(model.DistanceAt(t), 22.5);
  }
}

TEST(MobilityModel, TriangleWaveGeometry) {
  MobilityParams params;
  params.speed_mps = 1.0;
  params.min_distance_m = 10.0;
  params.max_distance_m = 30.0;
  MobilityModel model(params, 10.0);
  ASSERT_TRUE(model.Enabled());

  // Walking out: 1 m/s from 10 m.
  EXPECT_DOUBLE_EQ(model.DistanceAt(0), 10.0);
  EXPECT_NEAR(model.DistanceAt(5 * sim::kSecond), 15.0, 1e-9);
  EXPECT_NEAR(model.DistanceAt(20 * sim::kSecond), 30.0, 1e-9);
  // Walking back.
  EXPECT_NEAR(model.DistanceAt(25 * sim::kSecond), 25.0, 1e-9);
  EXPECT_NEAR(model.DistanceAt(40 * sim::kSecond), 10.0, 1e-9);
  // Periodicity: one out-and-back leg takes 40 s.
  EXPECT_NEAR(model.DistanceAt(47 * sim::kSecond),
              model.DistanceAt(7 * sim::kSecond), 1e-9);
}

TEST(MobilityModel, StartMidRangeAndClamping) {
  MobilityParams params;
  params.speed_mps = 2.0;
  params.min_distance_m = 10.0;
  params.max_distance_m = 20.0;
  // Start beyond max: clamped to 20 (walks back first by fold).
  MobilityModel model(params, 35.0);
  EXPECT_NEAR(model.DistanceAt(0), 20.0, 1e-9);
  EXPECT_NEAR(model.DistanceAt(sim::kSecond), 18.0, 1e-9);
}

TEST(MobilityModel, DistanceAlwaysInRange) {
  MobilityParams params;
  params.speed_mps = 3.7;
  params.min_distance_m = 12.0;
  params.max_distance_m = 33.0;
  MobilityModel model(params, 17.0);
  for (sim::Time t = 0; t < 500 * sim::kSecond; t += 777'777) {
    const double d = model.DistanceAt(t);
    EXPECT_GE(d, 12.0 - 1e-9);
    EXPECT_LE(d, 33.0 + 1e-9);
  }
}

TEST(MobilityModel, InvalidParamsRejected) {
  MobilityParams bad;
  bad.speed_mps = -1.0;
  EXPECT_THROW(MobilityModel(bad, 10.0), std::invalid_argument);
  MobilityParams bad_range;
  bad_range.speed_mps = 1.0;
  bad_range.min_distance_m = 20.0;
  bad_range.max_distance_m = 10.0;
  EXPECT_THROW(MobilityModel(bad_range, 10.0), std::invalid_argument);
}

TEST(MobilityChannel, RssiFollowsTheWalk) {
  ChannelConfig config;
  config.distance_m = 10.0;
  config.mobility.speed_mps = 1.0;
  config.mobility.min_distance_m = 10.0;
  config.mobility.max_distance_m = 35.0;
  config.use_default_temporal_sigma = false;
  config.shadowing.sigma_db = 0.0;
  config.noise.burst_rate_hz = 0.0;
  Channel channel(config, util::Rng(1));

  EXPECT_NEAR(channel.DistanceAt(0), 10.0, 1e-9);
  EXPECT_NEAR(channel.DistanceAt(25 * sim::kSecond), 35.0, 1e-9);

  const auto near = channel.Transmit(0.0, 50, sim::kSecond);
  const auto far = channel.Transmit(0.0, 50, 24 * sim::kSecond);
  // 11 m vs 34 m: ~10.7 dB weaker.
  EXPECT_GT(near.rssi_dbm, far.rssi_dbm + 8.0);
}

TEST(MobilityChannel, WalkDegradesDeliveryAtLowPower) {
  node::SimulationOptions options;
  options.config.distance_m = 10.0;
  options.config.pa_level = 7;  // fine at 10 m, grey at 35 m
  options.config.max_tries = 1;
  options.config.queue_capacity = 5;
  options.config.pkt_interval_ms = 100.0;
  options.config.payload_bytes = 110;
  options.packet_count = 1000;  // 100 s: 2 patrol legs at 0.5 m/s
  options.seed = 5;
  options.mobility_speed_mps = 0.5;

  const auto moving = metrics::MeasureConfig(options);
  options.mobility_speed_mps = 0.0;  // parked at 10 m
  const auto parked = metrics::MeasureConfig(options);

  EXPECT_GT(moving.plr_radio, parked.plr_radio + 0.05);
}

}  // namespace
}  // namespace wsnlink::channel
