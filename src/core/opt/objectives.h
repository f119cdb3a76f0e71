// Optimization objectives over model-predicted metrics.
//
// The multi-objective problem of Sec. VIII-B works on the metric vector
// (E, G, D, L) predicted by the ModelSet. This header defines the metric
// identifiers, extraction from a MetricPrediction, and the orientation
// (lower-is-better after negating goodput) used by the Pareto and
// epsilon-constraint machinery.
#pragma once

#include "core/models/model_set.h"

namespace wsnlink::core::opt {

/// The four performance metrics of the paper.
enum class Metric {
  kEnergy,    ///< U_eng, microjoules per delivered bit (minimise)
  kGoodput,   ///< max goodput, kbps (maximise)
  kDelay,     ///< total delay, ms (minimise)
  kLoss,      ///< total packet loss rate (minimise)
};

/// Extracts a metric value from a prediction.
[[nodiscard]] double MetricValue(const models::MetricPrediction& prediction,
                                 Metric metric) noexcept;

/// Extracts the metric in minimisation orientation (goodput is negated so
/// that "smaller is better" holds uniformly).
[[nodiscard]] double MetricCost(const models::MetricPrediction& prediction,
                                Metric metric) noexcept;

}  // namespace wsnlink::core::opt
