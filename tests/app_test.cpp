// Unit tests for the application layer: traffic generation and the sink.
#include <gtest/gtest.h>

#include "app/sink.h"
#include "app/traffic_gen.h"
#include "channel/channel.h"
#include "link/link_layer.h"
#include "mac/csma_mac.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace wsnlink::app {
namespace {

struct AppHarness {
  sim::Simulator simulator;
  channel::Channel channel;
  mac::CsmaMac mac;
  link::LinkLayer link;

  explicit AppHarness(std::uint64_t seed, double distance = 5.0)
      : channel(MakeChannel(distance), util::Rng(seed)),
        mac(simulator, channel, mac::MacParams{}, util::Rng(seed + 1)),
        link(simulator, mac, 30) {}

  static channel::ChannelConfig MakeChannel(double distance) {
    channel::ChannelConfig config;
    config.distance_m = distance;
    config.noise.burst_rate_hz = 0.0;
    return config;
  }
};

TEST(TrafficGenerator, GeneratesExactCountAtFixedInterval) {
  AppHarness h(300);
  TrafficParams params;
  params.pkt_interval = 50 * sim::kMillisecond;
  params.payload_bytes = 40;
  params.packet_count = 10;
  TrafficGenerator gen(h.simulator, h.link, params, util::Rng(1));
  gen.Start();
  h.simulator.Run();

  EXPECT_EQ(gen.Generated(), 10);
  EXPECT_TRUE(gen.Done());
  const auto& packets = h.link.Log().Packets();
  ASSERT_EQ(packets.size(), 10u);
  // Arrivals exactly 50 ms apart.
  for (std::size_t i = 1; i < packets.size(); ++i) {
    EXPECT_EQ(packets[i].arrived_at - packets[i - 1].arrived_at,
              50 * sim::kMillisecond);
  }
  // Sequential ids from 1.
  EXPECT_EQ(packets.front().id, 1u);
  EXPECT_EQ(packets.back().id, 10u);
}

TEST(TrafficGenerator, PoissonArrivalsHaveExponentialGaps) {
  AppHarness h(301);
  TrafficParams params;
  params.pkt_interval = 20 * sim::kMillisecond;
  params.payload_bytes = 10;
  params.packet_count = 2000;
  params.poisson = true;
  TrafficGenerator gen(h.simulator, h.link, params, util::Rng(2));
  gen.Start();
  h.simulator.Run();

  const auto& packets = h.link.Log().Packets();
  util::RunningStats gaps;
  for (std::size_t i = 1; i < packets.size(); ++i) {
    gaps.Add(sim::ToMilliseconds(packets[i].arrived_at -
                                 packets[i - 1].arrived_at));
  }
  EXPECT_NEAR(gaps.Mean(), 20.0, 1.5);
  // Exponential: stddev ~ mean (deterministic would be 0).
  EXPECT_GT(gaps.StdDev(), 12.0);
}

TEST(TrafficGenerator, InvalidParamsRejected) {
  AppHarness h(302);
  TrafficParams bad;
  bad.pkt_interval = 0;
  EXPECT_THROW(TrafficGenerator(h.simulator, h.link, bad, util::Rng(1)),
               std::invalid_argument);
  TrafficParams bad2;
  bad2.packet_count = 0;
  EXPECT_THROW(TrafficGenerator(h.simulator, h.link, bad2, util::Rng(1)),
               std::invalid_argument);
  TrafficParams bad3;
  bad3.payload_bytes = 200;
  EXPECT_THROW(TrafficGenerator(h.simulator, h.link, bad3, util::Rng(1)),
               std::invalid_argument);
}

TEST(PacketSink, CountsUniqueAndDuplicates) {
  PacketSink sink;
  mac::DeliveryInfo info;
  info.packet_id = 1;
  info.payload_bytes = 50;
  info.received_at = 1000;
  info.rssi_dbm = -70.0;
  info.snr_db = 25.0;
  info.lqi = 105;
  sink.OnDelivery(info);
  sink.OnDelivery(info);  // duplicate copy
  info.packet_id = 2;
  info.received_at = 2000;
  sink.OnDelivery(info);

  EXPECT_EQ(sink.UniqueCount(), 2u);
  EXPECT_EQ(sink.DuplicateCount(), 1u);
  EXPECT_EQ(sink.UniquePayloadBytes(), 100u);
  EXPECT_EQ(sink.LastDeliveryAt(), 2000);
  ASSERT_EQ(sink.Receptions().size(), 3u);
  EXPECT_FALSE(sink.Receptions()[0].duplicate);
  EXPECT_TRUE(sink.Receptions()[1].duplicate);
  EXPECT_EQ(sink.RssiStats().Count(), 3u);
  EXPECT_NEAR(sink.SnrStats().Mean(), 25.0, 1e-12);
}

TEST(PacketSink, EndToEndWithLink) {
  AppHarness h(303);
  PacketSink sink;
  h.link.SetDeliveryCallback(
      [&sink](const mac::DeliveryInfo& info) { sink.OnDelivery(info); });
  TrafficParams params;
  params.pkt_interval = 30 * sim::kMillisecond;
  params.payload_bytes = 60;
  params.packet_count = 100;
  TrafficGenerator gen(h.simulator, h.link, params, util::Rng(3));
  gen.Start();
  h.simulator.Run();

  // Strong link: everything arrives exactly once.
  EXPECT_EQ(sink.UniqueCount(), 100u);
  EXPECT_EQ(sink.UniquePayloadBytes(), 6000u);
  EXPECT_GT(sink.LqiStats().Mean(), 100.0);
}

}  // namespace
}  // namespace wsnlink::app
