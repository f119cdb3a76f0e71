// Shared radio medium for multi-transmitter simulations.
//
// The paper's Sec. VIII-D treats concurrent transmitters as a synthetic
// "collision factor" — an independent renewal process jamming a fraction of
// the air (interferer.h). That approximation cannot capture the feedback
// loop between contenders: a sender that backs off changes what the other
// sender's CCA sees. The Medium closes that loop: every node registers the
// frames it actually radiates, CCA queries it for ongoing transmissions,
// and receptions that overlap a concurrent frame collide (SINR capture or
// destructive loss).
//
// Modelling assumptions (documented in docs/ARCHITECTURE.md):
//  * Single collision domain: all senders are within carrier-sense range of
//    each other, so BusyAt() ignores geometry between senders and only the
//    receiver-side power (the registered RSSI at the sink) enters the
//    capture comparison.
//  * ACKs are not registered: 802.15.4 ACKs are sent inside the turnaround
//    window without a CCA, and their 352 us airtime is negligible next to
//    data frames. They can still be *lost* to a collision (the ACK's own
//    Transmit() runs the overlap check like any frame).
//  * All queries are RNG-free, so attaching a medium never perturbs the
//    random streams of an uncontended stack — the N=1 network path stays
//    bit-identical to the single-link simulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>

#include "sim/time.h"

namespace wsnlink::channel {

/// How far back a finished frame can still matter to any query. Receivers
/// look back one frame airtime from the reception instant; the largest
/// 802.15.4 frame is 133 bytes at 32 us/byte = 4256 us. Twice that is a
/// comfortable margin: Begin() prunes frames that ended before this window,
/// since they can never influence a query again. What stays tracked is
/// bounded by the frames started within one window plus one longest frame
/// of the newest start: it follows the offered load, not the run length.
/// That is a handful of frames for a few senders but not under saturation:
/// perf_network's 1024-node rung tracks about 230 frames on average (411 at
/// peak), so BusyAt() scans none of them and StrongestOverlapDbm() only
/// the newest.
inline constexpr sim::Duration kMediumRetentionWindow = 8'512;

/// Aggregate activity statistics of a shared medium (diagnostics; summed
/// over the whole run).
struct MediumStats {
  /// Data frames registered by all nodes.
  std::uint64_t frames = 0;
  /// CCA queries that found another node's frame on the air.
  std::uint64_t busy_hits = 0;
  /// Receptions that overlapped a concurrent frame.
  std::uint64_t collisions = 0;
  /// Collided receptions saved by SINR capture.
  std::uint64_t captures = 0;
};

/// The shared air between N sender stacks and one sink.
///
/// Not thread-safe: one Medium belongs to one simulation run (runs in a
/// sweep are embarrassingly parallel and each owns its medium).
class Medium {
 public:
  /// `capture_margin_db`: a reception survives an overlap when its RSSI at
  /// the sink exceeds the strongest overlapping frame by at least this
  /// margin (classic SINR capture threshold; 802.15.4 receivers capture at
  /// ~3 dB co-channel rejection).
  explicit Medium(double capture_margin_db = 3.0);

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Registers a frame node `node` radiates over [start, end) whose mean
  /// received power at the sink is `sink_rssi_dbm`. `start` must be
  /// non-decreasing across calls (simulated time is monotonic); an earlier
  /// start throws std::invalid_argument. O(1) amortized.
  void Begin(int node, sim::Time start, sim::Time end,
             double sink_rssi_dbm);

  /// True when a frame from any node other than `listener` is on the air at
  /// `t` (single collision domain: every sender hears every other sender).
  /// `t` must not precede the latest registered start (the MACs register
  /// and sense at the simulator's current time); an earlier `t` throws
  /// std::invalid_argument. O(1): no frame is scanned.
  [[nodiscard]] bool BusyAt(sim::Time t, int listener);

  /// Strongest sink-side RSSI among frames from nodes other than `node`
  /// overlapping the open interval (start, end); nullopt when the air was
  /// clear. Pure: no RNG, no stats mutation. Visits only the frames started
  /// within one longest-frame airtime before `start`, newest first.
  [[nodiscard]] std::optional<double> StrongestOverlapDbm(sim::Time start,
                                                         sim::Time end,
                                                         int node) const;

  /// Records the outcome of a collided reception (diagnostics).
  void NoteCollision(bool captured) noexcept;

  [[nodiscard]] double CaptureMarginDb() const noexcept {
    return capture_margin_db_;
  }

  [[nodiscard]] const MediumStats& Stats() const noexcept { return stats_; }

  /// Frames currently tracked (includes recently ended frames not yet
  /// pruned).
  // wsnstatic:allow(unreached): test-only; Medium tests bound the pruning
  [[nodiscard]] std::size_t TrackedFrames() const noexcept {
    return frames_.size();
  }

 private:
  struct Frame {
    int node = 0;
    sim::Time start = 0;
    sim::Time end = 0;
    double sink_rssi_dbm = 0.0;
  };

  /// Frames in start order, so expired ones are popped from the front.
  std::deque<Frame> frames_;
  /// Latest registered start: the earliest instant BusyAt may be asked about.
  sim::Time latest_start_ = std::numeric_limits<sim::Time>::min();
  /// Longest frame registered so far (bounds StrongestOverlapDbm's walk).
  sim::Duration longest_ = 0;
  /// Running top-2 of frame ends from two distinct nodes: the latest end of
  /// any frame (`top_end_`, radiated by `top_node_`) and the latest end of
  /// any frame not radiated by `top_node_` (`second_end_`). With every
  /// registered start at or before the query instant, "another node's frame
  /// is on the air" reduces to comparing against one of the two.
  int top_node_ = 0;
  sim::Time top_end_ = std::numeric_limits<sim::Time>::min();
  sim::Time second_end_ = std::numeric_limits<sim::Time>::min();
  double capture_margin_db_;
  MediumStats stats_;
};

}  // namespace wsnlink::channel
