#include "core/opt/objectives.h"

namespace wsnlink::core::opt {

double MetricValue(const models::MetricPrediction& prediction,
                   Metric metric) noexcept {
  switch (metric) {
    case Metric::kEnergy:
      return prediction.energy_uj_per_bit;
    case Metric::kGoodput:
      return prediction.max_goodput_kbps;
    case Metric::kDelay:
      return prediction.total_delay_ms;
    case Metric::kLoss:
      return prediction.plr_total;
  }
  return 0.0;
}

double MetricCost(const models::MetricPrediction& prediction,
                  Metric metric) noexcept {
  const double value = MetricValue(prediction, metric);
  return metric == Metric::kGoodput ? -value : value;
}

}  // namespace wsnlink::core::opt
