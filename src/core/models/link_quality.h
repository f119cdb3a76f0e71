// Link-quality mapping: (P_tx, distance) -> expected SNR.
//
// The empirical models take SNR as their link-quality input; at
// configuration time an application knows its placement and power level
// instead. This helper closes the loop using the same log-distance path
// loss the channel substrate is built on, so model-based predictions line
// up with what the simulated link will actually experience on average.
#pragma once

#include "channel/path_loss.h"

namespace wsnlink::core::models {

/// Deterministic SNR predictor for a placement.
class LinkQualityMap {
 public:
  /// `noise_floor_dbm` is the average floor used as the SNR reference
  /// (paper: -95 dBm). `spatial_shadow_db` is the per-position offset if
  /// known (0 for the calibrated mean placement).
  explicit LinkQualityMap(channel::PathLossParams params = {},
                          double noise_floor_dbm = -95.0,
                          double spatial_shadow_db = 0.0);

  /// Expected RSSI in dBm for a PA level at a distance.
  [[nodiscard]] double RssiDbm(int pa_level, double distance_m) const;

  /// Expected SNR in dB for a PA level at a distance.
  [[nodiscard]] double SnrDb(int pa_level, double distance_m) const;

  /// Lowest PA level (of the sweep set) whose expected SNR reaches
  /// `target_snr_db` at the distance; nullopt-like -1 if even level 31
  /// falls short. Implements the "just enough power" guideline step.
  [[nodiscard]] int MinPaLevelForSnr(double distance_m,
                                     double target_snr_db) const;

 private:
  channel::PathLoss path_loss_;
  double noise_floor_dbm_;
  double spatial_shadow_db_;
};

}  // namespace wsnlink::core::models
