// Unit tests for the CSMA-CA MAC state machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "channel/channel.h"
#include "channel/medium.h"
#include "mac/csma_mac.h"
#include "phy/cc2420.h"
#include "phy/frame.h"
#include "phy/timing.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace wsnlink::mac {
namespace {

/// A strong short link where essentially every frame gets through.
channel::ChannelConfig StrongLink() {
  channel::ChannelConfig config;
  config.distance_m = 3.0;
  config.noise.burst_rate_hz = 0.0;  // no CCA noise in logic tests
  return config;
}

/// A link below sensitivity: nothing is ever decoded.
channel::ChannelConfig DeadLink() {
  channel::ChannelConfig config;
  config.distance_m = 35.0;
  config.use_default_temporal_sigma = false;
  config.shadowing.sigma_db = 0.0;
  config.noise.burst_rate_hz = 0.0;
  return config;
}

struct Harness {
  sim::Simulator simulator;
  channel::Channel channel;
  CsmaMac mac;
  std::optional<SendResult> result;
  std::vector<DeliveryInfo> deliveries;
  std::vector<AttemptInfo> attempts;

  Harness(channel::ChannelConfig config, MacParams params, std::uint64_t seed)
      : channel(config, util::Rng(seed)),
        mac(simulator, channel, params, util::Rng(seed + 1)) {
    mac.SetDeliveryCallback(
        [this](const DeliveryInfo& info) { deliveries.push_back(info); });
    mac.SetAttemptCallback(
        [this](const AttemptInfo& info) { attempts.push_back(info); });
  }

  void SendAndRun(int payload) {
    mac.Send(1, payload, [this](const SendResult& r) { result = r; });
    simulator.Run();
  }
};

TEST(CsmaMac, StrongLinkSucceedsFirstTry) {
  MacParams params;
  params.max_tries = 3;
  params.pa_level = 31;
  Harness h(StrongLink(), params, 100);
  h.SendAndRun(50);

  ASSERT_TRUE(h.result.has_value());
  EXPECT_TRUE(h.result->acked);
  EXPECT_TRUE(h.result->delivered);
  EXPECT_EQ(h.result->tries, 1);
  EXPECT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.attempts.size(), 1u);
  EXPECT_TRUE(h.attempts[0].acked);
}

TEST(CsmaMac, ServiceTimeWithinModelBounds) {
  // Single successful attempt: T_SPI + backoff + T_TR + T_frame + T_ACK.
  MacParams params;
  params.max_tries = 1;
  params.pa_level = 31;
  Harness h(StrongLink(), params, 101);
  h.SendAndRun(110);
  ASSERT_TRUE(h.result->acked);

  const auto elapsed = h.result->completed_at - h.result->accepted_at;
  const auto fixed = phy::SpiLoadTime(110) + phy::kTurnaroundTime +
                     phy::DataFrameAirTime(110) + phy::kAckTime;
  EXPECT_GE(elapsed, fixed);  // backoff >= 0
  EXPECT_LE(elapsed, fixed + phy::kInitialBackoffMax);
}

TEST(CsmaMac, DeadLinkExhaustsAllTries) {
  MacParams params;
  params.max_tries = 5;
  params.pa_level = 3;  // -25 dBm at 35 m: below sensitivity
  Harness h(DeadLink(), params, 102);
  h.SendAndRun(50);

  ASSERT_TRUE(h.result.has_value());
  EXPECT_FALSE(h.result->acked);
  EXPECT_FALSE(h.result->delivered);
  EXPECT_EQ(h.result->tries, 5);
  EXPECT_EQ(h.deliveries.size(), 0u);
  EXPECT_EQ(h.attempts.size(), 5u);
}

TEST(CsmaMac, RetryDelayStretchesFailure) {
  MacParams fast;
  fast.max_tries = 3;
  fast.retry_delay = 0;
  fast.pa_level = 3;
  Harness h_fast(DeadLink(), fast, 103);
  h_fast.SendAndRun(50);

  MacParams slow = fast;
  slow.retry_delay = sim::FromMilliseconds(60.0);
  Harness h_slow(DeadLink(), slow, 103);
  h_slow.SendAndRun(50);

  const auto fast_time =
      h_fast.result->completed_at - h_fast.result->accepted_at;
  const auto slow_time =
      h_slow.result->completed_at - h_slow.result->accepted_at;
  // Two retries, each delayed 60 ms extra (minus backoff randomness).
  EXPECT_GT(slow_time, fast_time + 2 * sim::FromMilliseconds(50.0));
}

TEST(CsmaMac, EnergyAccountsAllAttempts) {
  MacParams params;
  params.max_tries = 4;
  params.pa_level = 3;
  Harness h(DeadLink(), params, 104);
  h.SendAndRun(30);

  const double per_attempt = phy::EnergyPerBitMicrojoule(3) * 8.0 *
                             static_cast<double>(phy::DataFrameBytes(30));
  EXPECT_NEAR(h.result->tx_energy_uj, 4.0 * per_attempt, 1e-9);
  EXPECT_EQ(h.result->radiated_bytes, 4 * phy::DataFrameBytes(30));
}

TEST(CsmaMac, BusyRejectsConcurrentSend) {
  MacParams params;
  Harness h(StrongLink(), params, 105);
  h.mac.Send(1, 10, [](const SendResult&) {});
  EXPECT_TRUE(h.mac.Busy());
  EXPECT_THROW(h.mac.Send(2, 10, [](const SendResult&) {}), std::logic_error);
  h.simulator.Run();
  EXPECT_FALSE(h.mac.Busy());
}

TEST(CsmaMac, InvalidParamsRejected) {
  sim::Simulator simulator;
  channel::Channel channel(StrongLink(), util::Rng(1));
  MacParams bad_tries;
  bad_tries.max_tries = 0;
  EXPECT_THROW(CsmaMac(simulator, channel, bad_tries, util::Rng(2)),
               std::invalid_argument);
  MacParams bad_level;
  bad_level.pa_level = 12;
  EXPECT_THROW(CsmaMac(simulator, channel, bad_level, util::Rng(2)),
               std::invalid_argument);
  MacParams ok;
  CsmaMac mac(simulator, channel, ok, util::Rng(2));
  EXPECT_THROW(mac.Send(1, 0, [](const SendResult&) {}),
               std::invalid_argument);
  EXPECT_THROW(mac.Send(1, 10, nullptr), std::invalid_argument);
}

TEST(CsmaMac, MidLinkRetransmissionRecoversPackets) {
  // At a loss-prone SNR, max_tries=8 should ack packets that max_tries=1
  // drops. Statistical over 300 packets.
  channel::ChannelConfig config;
  config.distance_m = 35.0;
  config.noise.burst_rate_hz = 0.0;

  const auto run = [&](int tries, std::uint64_t seed) {
    sim::Simulator simulator;
    channel::Channel channel(config, util::Rng(seed));
    MacParams params;
    params.max_tries = tries;
    params.pa_level = 7;  // grey zone at 35 m
    CsmaMac mac(simulator, channel, params, util::Rng(seed + 7));
    int acked = 0;
    for (std::uint64_t id = 0; id < 300; ++id) {
      mac.Send(id, 110, [&acked](const SendResult& r) {
        if (r.acked) ++acked;
      });
      simulator.Run();
    }
    return acked;
  };

  EXPECT_GT(run(8, 42), run(1, 42) + 30);
}

TEST(CsmaMac, DuplicateDeliveryOnLostAck) {
  // Over many grey-zone packets some ACKs get lost after delivery; the
  // retransmission then produces a duplicate DeliveryInfo.
  channel::ChannelConfig config;
  config.distance_m = 35.0;
  config.noise.burst_rate_hz = 0.0;

  sim::Simulator simulator;
  channel::Channel channel(config, util::Rng(7));
  MacParams params;
  params.max_tries = 8;
  params.pa_level = 7;
  CsmaMac mac(simulator, channel, params, util::Rng(8));
  std::vector<DeliveryInfo> deliveries;
  mac.SetDeliveryCallback(
      [&](const DeliveryInfo& info) { deliveries.push_back(info); });
  int acked = 0;
  for (std::uint64_t id = 0; id < 400; ++id) {
    mac.Send(id, 110, [&](const SendResult& r) {
      if (r.acked) ++acked;
    });
    simulator.Run();
  }
  // Deliveries exceed unique acked packets whenever an ACK was lost.
  EXPECT_GT(static_cast<int>(deliveries.size()), acked / 2);
  bool any_duplicate = false;
  for (std::size_t i = 1; i < deliveries.size(); ++i) {
    if (deliveries[i].packet_id == deliveries[i - 1].packet_id) {
      any_duplicate = true;
      break;
    }
  }
  EXPECT_TRUE(any_duplicate);
}

TEST(CsmaMac, AttemptSnrRecorded) {
  MacParams params;
  Harness h(StrongLink(), params, 106);
  h.SendAndRun(40);
  ASSERT_FALSE(h.attempts.empty());
  // Strong 3 m link: SNR should be comfortably above 30 dB.
  EXPECT_GT(h.attempts[0].snr_db, 30.0);
  EXPECT_EQ(h.attempts[0].payload_bytes, 40);
  EXPECT_EQ(h.attempts[0].attempt, 1);
}


/// Everything one CsmaMac run reports, for comparing its two drivers.
struct LadderRun {
  std::vector<SendResult> results;
  std::vector<DeliveryInfo> deliveries;
  std::vector<AttemptInfo> attempts;
  std::vector<trace::TraceEvent> events;
  std::uint64_t cca_busy = 0;
  std::uint64_t events_executed = 0;
};

/// Sends `packets` back to back (each from the previous one's done
/// callback), traced. With `lone_medium` the channel joins a shared medium
/// as its only node: the MAC then drives its ladder with one simulator
/// event per step instead of inline, while the physics stays the same
/// (Medium::BusyAt excludes the listener, StrongestOverlapDbm the sender's
/// own frames).
LadderRun RunLadder(const channel::ChannelConfig& config, MacParams params,
                    std::uint64_t seed, int packets, bool lone_medium) {
  sim::Simulator simulator;
  channel::Medium medium;
  channel::Channel channel(config, util::Rng(seed));
  if (lone_medium) channel.AttachMedium(&medium, 0);
  CsmaMac mac(simulator, channel, params, util::Rng(seed + 1));
  trace::Tracer tracer;
  trace::TraceContext ctx;
  ctx.tracer = &tracer;
  mac.AttachTrace(ctx);

  LadderRun run;
  mac.SetDeliveryCallback(
      [&run](const DeliveryInfo& info) { run.deliveries.push_back(info); });
  mac.SetAttemptCallback(
      [&run](const AttemptInfo& info) { run.attempts.push_back(info); });
  std::uint64_t next_id = 0;
  std::function<void(const SendResult&)> on_done =
      [&](const SendResult& result) {
        run.results.push_back(result);
        if (++next_id < static_cast<std::uint64_t>(packets)) {
          mac.Send(next_id, 90, on_done);
        }
      };
  mac.Send(next_id, 90, on_done);
  simulator.Run();

  run.events = tracer.Events();
  run.cca_busy = mac.CcaBusyCount();
  run.events_executed = simulator.EventsExecuted();
  return run;
}

TEST(CsmaMac, InlineAndScheduledDriversRunTheSameLadder) {
  // A grey-zone link with frequent long noise bursts and a busy
  // interferer: retries, lost ACKs, congestion backoffs and CCA-exhausted
  // attempts all occur. Both a zero D_retry (a real zero-delay event in
  // the scheduled driver) and a nonzero one are covered.
  channel::ChannelConfig config;
  config.distance_m = 35.0;
  config.noise.burst_rate_hz = 25.0;
  config.interferer.duty_cycle = 0.2;
  for (const sim::Duration retry_delay : {sim::Duration{0},
                                          sim::FromMilliseconds(5.0)}) {
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " retry_delay " +
                   std::to_string(retry_delay));
      MacParams params;
      params.max_tries = 4;
      params.retry_delay = retry_delay;
      params.pa_level = 7;
      const auto inline_run = RunLadder(config, params, seed, 80, false);
      const auto scheduled_run = RunLadder(config, params, seed, 80, true);

      ASSERT_EQ(inline_run.results.size(), 80u);
      EXPECT_TRUE(inline_run.results == scheduled_run.results);
      EXPECT_TRUE(inline_run.deliveries == scheduled_run.deliveries);
      EXPECT_TRUE(inline_run.attempts == scheduled_run.attempts);
      EXPECT_TRUE(inline_run.events == scheduled_run.events);
      EXPECT_EQ(inline_run.cca_busy, scheduled_run.cca_busy);
      // Both drivers really ran: inline schedules one event per packet.
      EXPECT_EQ(inline_run.events_executed, 80u);
      EXPECT_GT(scheduled_run.events_executed, 5u * 80u);

      // The ladder's rare branches were exercised.
      EXPECT_GT(inline_run.cca_busy, 0u);
      EXPECT_TRUE(std::any_of(inline_run.events.begin(),
                              inline_run.events.end(),
                              [](const trace::TraceEvent& e) {
                                return e.type == trace::EventType::kCcaBusy &&
                                       e.arg0 == 0;
                              }));
      EXPECT_LT(inline_run.deliveries.size(), inline_run.attempts.size());
    }
  }
}

}  // namespace
}  // namespace wsnlink::mac
