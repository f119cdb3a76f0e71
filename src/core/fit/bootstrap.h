// Bootstrap confidence intervals for the scaled-exponential fits.
//
// The paper reports Eq. (7)'s coefficients "with 95% confidence level".
// A nonparametric bootstrap over the (payload, SNR, value) samples gives
// equivalent intervals for our refits: resample with replacement, refit,
// take percentile bounds of the coefficient distributions.
#pragma once

#include <optional>
#include <span>

#include "core/fit/exponential_fit.h"
#include "util/rng.h"

namespace wsnlink::core::fit {

/// A two-sided confidence interval.
struct ConfidenceInterval {
  double lo = 0.0;
  double hi = 0.0;

  [[nodiscard]] bool Contains(double x) const noexcept {
    return x >= lo && x <= hi;
  }
};

/// Point fit plus bootstrap intervals for both coefficients.
struct BootstrapFitResult {
  ScaledExpFitResult point;
  ConfidenceInterval a;
  ConfidenceInterval b;
  /// Bootstrap replicates that produced a valid fit.
  int successful_replicates = 0;
};

/// Options for the bootstrap.
struct BootstrapOptions {
  int replicates = 200;
  /// Two-sided confidence level in (0, 1), e.g. 0.95.
  double confidence = 0.95;
};

/// Bootstraps FitScaledExponential. Returns nullopt when the point fit
/// itself fails or fewer than 10 replicates succeed.
[[nodiscard]] std::optional<BootstrapFitResult> BootstrapScaledExponential(
    std::span<const ScaledExpSample> samples, util::Rng rng,
    const BootstrapOptions& options = {});

}  // namespace wsnlink::core::fit
