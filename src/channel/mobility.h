// Node mobility model.
//
// Sec. VIII-D: "the environment where the WSN is deployed and the mobility
// of a node also have a possibly large impact on the performance". This
// module makes the sender-receiver distance a function of time: a constant-
// speed patrol between two waypoints (triangle wave), the standard simple
// mobility pattern for a link study. The channel recomputes path loss per
// transmission from the instantaneous distance, so a walking node sweeps
// the link through every SNR zone — the scenario the adaptive controller
// (core/opt/adaptive.h) exists for.
#pragma once

#include "sim/time.h"

namespace wsnlink::channel {

/// Parameters of the waypoint patrol.
struct MobilityParams {
  /// 0 disables mobility (the distance stays at the configured value).
  double speed_mps = 0.0;
  /// Patrol endpoints in metres; requires 0 < min < max when enabled.
  double min_distance_m = 10.0;
  double max_distance_m = 35.0;
};

/// Deterministic triangle-wave distance profile.
class MobilityModel {
 public:
  /// `start_distance_m` is where the node begins (clamped into range);
  /// it initially walks outward (towards max).
  MobilityModel(MobilityParams params, double start_distance_m);

  /// True if the node moves at all.
  [[nodiscard]] bool Enabled() const noexcept { return params_.speed_mps > 0.0; }

  /// Distance at simulated time t (pure; callable in any order).
  [[nodiscard]] double DistanceAt(sim::Time t) const;

 private:
  MobilityParams params_;
  double start_offset_m_ = 0.0;  // position along the unfolded walk at t=0
};

}  // namespace wsnlink::channel
