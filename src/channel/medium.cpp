#include "channel/medium.h"

#include <algorithm>
#include <stdexcept>

namespace wsnlink::channel {

Medium::Medium(double capture_margin_db)
    : capture_margin_db_(capture_margin_db) {
  // Negated so that NaN is rejected too: a NaN margin would make every
  // capture comparison false and silently disable capture.
  if (!(capture_margin_db >= 0.0)) {
    throw std::invalid_argument("Medium: capture margin must be >= 0 dB");
  }
}

void Medium::Begin(int node, sim::Time start, sim::Time end,
                   double sink_rssi_dbm) {
  if (end <= start) {
    throw std::invalid_argument("Medium::Begin: frame must have end > start");
  }
  if (start < latest_start_) {
    throw std::invalid_argument(
        "Medium::Begin: frame starts must be non-decreasing");
  }
  latest_start_ = start;
  longest_ = std::max(longest_, end - start);

  // Prune frames that ended long before any query can still reach them.
  // Frames are in start order, so the expired ones collect at the front;
  // a still-live front frame holds back at most the frames started within
  // one longest airtime after it.
  if (start > kMediumRetentionWindow) {
    const sim::Time horizon = start - kMediumRetentionWindow;
    while (!frames_.empty() && frames_.front().end < horizon) {
      frames_.pop_front();
    }
  }
  frames_.push_back({node, start, end, sink_rssi_dbm});
  ++stats_.frames;

  if (node == top_node_) {
    top_end_ = std::max(top_end_, end);
  } else if (end > top_end_) {
    // The old leader belongs to another node and was the latest end of all.
    second_end_ = top_end_;
    top_node_ = node;
    top_end_ = end;
  } else {
    second_end_ = std::max(second_end_, end);
  }
}

bool Medium::BusyAt(sim::Time t, int listener) {
  if (t < latest_start_) {
    throw std::invalid_argument(
        "Medium::BusyAt: query precedes the latest registered start");
  }
  // Every registered frame started at or before t, so another node's frame
  // is on the air exactly when the latest end among other nodes is after t.
  const sim::Time other_end = listener == top_node_ ? second_end_ : top_end_;
  if (t < other_end) {
    ++stats_.busy_hits;
    return true;
  }
  return false;
}

std::optional<double> Medium::StrongestOverlapDbm(sim::Time start,
                                                  sim::Time end,
                                                  int node) const {
  std::optional<double> strongest;
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    const Frame& f = *it;
    // Older frames start no later than f and last at most longest_, so
    // none of them reaches past `start` either.
    if (f.start + longest_ <= start) break;
    if (f.node == node) continue;
    // Open-interval overlap: frames that merely touch at an endpoint do not
    // collide (the receiver resynchronises between back-to-back frames).
    if (f.start < end && f.end > start) {
      if (!strongest || f.sink_rssi_dbm > *strongest) {
        strongest = f.sink_rssi_dbm;
      }
    }
  }
  return strongest;
}

void Medium::NoteCollision(bool captured) noexcept {
  ++stats_.collisions;
  if (captured) ++stats_.captures;
}

}  // namespace wsnlink::channel
