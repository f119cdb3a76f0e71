// Direct tests of channel::Medium: its O(1) carrier sense, its bounded
// overlap walk and its amortized pruning are checked against a brute-force
// scan over every recently registered frame.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "channel/medium.h"
#include "util/rng.h"

namespace wsnlink::channel {
namespace {

// Longest frame the randomized runs register (133 bytes at 32 us/byte).
constexpr sim::Duration kMaxFrame = 4'256;

struct RefFrame {
  int node;
  sim::Time start;
  sim::Time end;
  double rssi;
};

// The obviously-correct model: scan every frame that could still matter.
class Reference {
 public:
  void Begin(int node, sim::Time start, sim::Time end, double rssi) {
    frames_.push_back({node, start, end, rssi});
  }

  bool BusyAt(sim::Time t, int listener) const {
    return std::any_of(frames_.begin(), frames_.end(), [&](const RefFrame& f) {
      return f.node != listener && f.start <= t && t < f.end;
    });
  }

  std::optional<double> StrongestOverlapDbm(sim::Time start, sim::Time end,
                                            int node) const {
    std::optional<double> strongest;
    for (const RefFrame& f : frames_) {
      if (f.node != node && f.start < end && f.end > start &&
          (!strongest || f.rssi > *strongest)) {
        strongest = f.rssi;
      }
    }
    return strongest;
  }

  // Queries look back at most one frame from `now`; anything that ended
  // before that is dead for good.
  void Forget(sim::Time now) {
    std::erase_if(frames_, [now](const RefFrame& f) {
      return f.end < now - 2 * kMaxFrame;
    });
  }

  // Earliest end strictly after `now`, so runs land exactly on frame ends.
  std::optional<sim::Time> NextEndAfter(sim::Time now) const {
    std::optional<sim::Time> next;
    for (const RefFrame& f : frames_) {
      if (f.end > now && (!next || f.end < *next)) next = f.end;
    }
    return next;
  }

 private:
  std::vector<RefFrame> frames_;
};

sim::Duration FrameLength(util::Rng& rng) {
  // Mixed lengths: 1 us slivers, ACK-sized, and data frames up to the max.
  switch (rng.UniformInt(0, 3)) {
    case 0: return 1;
    case 1: return 352;
    default: return rng.UniformInt(600, kMaxFrame);
  }
}

struct RunShape {
  int nodes;
  sim::Duration max_gap;  // largest idle advance of the clock
  int steps;
};

// Replays a random run on a Medium and the Reference side by side. Stores
// the most frames the medium tracked at once in `peak_tracked`.
void CompareAgainstReference(const RunShape& shape, std::uint64_t seed,
                             std::size_t* peak_tracked = nullptr) {
  util::Rng rng(seed);
  Medium medium(3.0);
  Reference ref;
  std::uint64_t ref_busy_hits = 0;
  sim::Time now = 0;
  std::vector<sim::Time> starts;  // every registered start, in order
  std::size_t max_tracked = 0;
  for (int step = 0; step < shape.steps; ++step) {
    // Advance the clock: often to the next frame end (endpoint cases),
    // sometimes not at all (same-instant registrations and queries).
    const auto next_end = ref.NextEndAfter(now);
    const double move = rng.NextDouble();
    if (move < 0.3 && next_end) {
      now = *next_end;
    } else if (move < 0.9) {
      now += rng.UniformInt(0, shape.max_gap);
    }
    ref.Forget(now);

    const int node = static_cast<int>(rng.UniformInt(0, shape.nodes - 1));
    const double action = rng.NextDouble();
    if (action < 0.4) {
      const sim::Time end = now + FrameLength(rng);
      const double rssi = rng.Uniform(-95.0, -40.0);
      medium.Begin(node, now, end, rssi);
      ref.Begin(node, now, end, rssi);
      starts.push_back(now);
      // Whatever the run length, only frames started within one retention
      // window plus one longest frame of the newest start stay tracked.
      const auto recent = static_cast<std::size_t>(
          starts.end() -
          std::lower_bound(starts.begin(), starts.end(),
                           now - kMediumRetentionWindow - kMaxFrame));
      ASSERT_LE(medium.TrackedFrames(), recent) << "step " << step;
    } else if (action < 0.7) {
      const bool expected = ref.BusyAt(now, node);
      ref_busy_hits += expected ? 1 : 0;
      ASSERT_EQ(medium.BusyAt(now, node), expected)
          << "step " << step << " t " << now << " listener " << node;
    } else {
      // A reception ending now, or a window opening exactly at a frame end.
      sim::Time start = now - rng.UniformInt(1, kMaxFrame);
      if (next_end && rng.NextDouble() < 0.3 && *next_end - kMaxFrame < now) {
        start = *next_end - kMaxFrame;
      }
      ASSERT_EQ(medium.StrongestOverlapDbm(start, now, node),
                ref.StrongestOverlapDbm(start, now, node))
          << "step " << step << " window (" << start << ", " << now << ")";
    }
    max_tracked = std::max(max_tracked, medium.TrackedFrames());
  }
  EXPECT_EQ(medium.Stats().busy_hits, ref_busy_hits);
  EXPECT_EQ(medium.Stats().frames, starts.size());
  if (peak_tracked != nullptr) *peak_tracked = max_tracked;
}

TEST(Medium, MatchesBruteForceWithFewNodes) {
  // Two and three nodes: the listener is the top node most of the time.
  for (const int nodes : {2, 3}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      CompareAgainstReference({nodes, 400, 5'000}, seed * 31 + nodes);
    }
  }
}

TEST(Medium, MatchesBruteForceWithManyNodes) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    CompareAgainstReference({64, 150, 5'000}, seed);
  }
}

TEST(Medium, LongRunKeepsTrackedFramesBounded) {
  // 200k steps span thousands of retention windows; the short run's peak
  // already covers the steady state.
  std::size_t short_peak = 0;
  std::size_t long_peak = 0;
  CompareAgainstReference({8, 300, 5'000}, 7, &short_peak);
  CompareAgainstReference({8, 300, 200'000}, 7, &long_peak);
  EXPECT_LE(long_peak, 2 * short_peak);
}

TEST(Medium, ListenerThatIsTopNodeSeesTheRunnerUp) {
  Medium medium;
  medium.Begin(0, 0, 100, -60.0);   // runner-up: node 0 until t=100
  medium.Begin(1, 10, 500, -70.0);  // top: node 1 until t=500
  EXPECT_TRUE(medium.BusyAt(10, 1));   // node 0 still on the air
  EXPECT_TRUE(medium.BusyAt(99, 1));
  EXPECT_FALSE(medium.BusyAt(100, 1)); // node 0's frame ended at 100
  EXPECT_TRUE(medium.BusyAt(100, 0));  // node 1's frame runs until 500
  EXPECT_FALSE(medium.BusyAt(500, 0));
  // Node 1 extends its own lead; node 0 still only hears node 1.
  medium.Begin(1, 600, 900, -70.0);
  EXPECT_FALSE(medium.BusyAt(600, 1));
  EXPECT_TRUE(medium.BusyAt(600, 0));
  EXPECT_EQ(medium.Stats().busy_hits, 4u);
}

TEST(Medium, FramesTouchingAtAnEndpointDoNotOverlap) {
  Medium medium;
  medium.Begin(0, 0, 100, -60.0);
  medium.Begin(1, 100, 200, -55.0);
  // Open intervals: (100, 200) does not include node 0's frame [0, 100).
  EXPECT_EQ(medium.StrongestOverlapDbm(100, 200, 1), std::nullopt);
  EXPECT_EQ(medium.StrongestOverlapDbm(99, 200, 1), -60.0);
  EXPECT_EQ(medium.StrongestOverlapDbm(0, 100, 0), std::nullopt);
  EXPECT_EQ(medium.StrongestOverlapDbm(0, 101, 0), -55.0);
  EXPECT_FALSE(medium.BusyAt(200, 0));
}

TEST(Medium, RejectsOutOfOrderBegin) {
  Medium medium;
  medium.Begin(0, 1'000, 2'000, -60.0);
  medium.Begin(1, 1'000, 1'500, -60.0);  // equal starts are fine
  EXPECT_THROW(medium.Begin(2, 999, 1'500, -60.0), std::invalid_argument);
  EXPECT_THROW(medium.Begin(2, 1'200, 1'200, -60.0), std::invalid_argument);
  EXPECT_EQ(medium.Stats().frames, 2u);
}

TEST(Medium, RejectsBusyQueryBeforeLatestStart) {
  Medium medium;
  EXPECT_FALSE(medium.BusyAt(0, 0));  // empty medium: any instant is fine
  medium.Begin(0, 1'000, 2'000, -60.0);
  EXPECT_THROW((void)medium.BusyAt(999, 1), std::invalid_argument);
  EXPECT_TRUE(medium.BusyAt(1'000, 1));
  EXPECT_EQ(medium.Stats().busy_hits, 1u);
}

TEST(Medium, RejectsNegativeAndNanCaptureMargins) {
  EXPECT_THROW(Medium{-1.0}, std::invalid_argument);
  EXPECT_THROW(Medium{std::nan("")}, std::invalid_argument);
  EXPECT_NO_THROW(Medium{0.0});
}

}  // namespace
}  // namespace wsnlink::channel
