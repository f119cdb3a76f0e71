#include "channel/mobility.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wsnlink::channel {

MobilityModel::MobilityModel(MobilityParams params, double start_distance_m)
    : params_(params) {
  if (params_.speed_mps < 0.0) {
    throw std::invalid_argument("MobilityModel: speed must be >= 0");
  }
  if (Enabled()) {
    if (params_.min_distance_m <= 0.0 ||
        params_.min_distance_m >= params_.max_distance_m) {
      throw std::invalid_argument(
          "MobilityModel: need 0 < min_distance < max_distance");
    }
    const double clamped = std::clamp(start_distance_m, params_.min_distance_m,
                                      params_.max_distance_m);
    start_offset_m_ = clamped - params_.min_distance_m;
  } else {
    start_offset_m_ = start_distance_m;
  }
}

double MobilityModel::DistanceAt(sim::Time t) const {
  if (!Enabled()) return start_offset_m_;
  const double span = params_.max_distance_m - params_.min_distance_m;
  const double walked =
      start_offset_m_ + params_.speed_mps * sim::ToSeconds(t);
  // Fold the unbounded walk onto the out-and-back triangle of length 2*span.
  const double cycle = std::fmod(walked, 2.0 * span);
  const double leg = cycle <= span ? cycle : 2.0 * span - cycle;
  return params_.min_distance_m + leg;
}

}  // namespace wsnlink::channel
