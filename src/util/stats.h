// Descriptive statistics and least-squares fitting primitives.
//
// These are the numeric workhorses behind the paper's data analysis: per-
// configuration metric summaries (mean/stddev/percentiles), the log-normal
// path-loss fit of Fig. 3, and the exponential model fits of Figs. 11-12
// (via log-linearised linear regression and Gauss-Newton refinement in
// core/fit).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "util/rng.h"

namespace wsnlink::util {

/// Streaming accumulator for mean/variance/min/max (Welford's algorithm).
///
/// Numerically stable for long streams (the campaign feeds hundreds of
/// millions of per-packet samples through these).
class RunningStats {
 public:
  void Add(double x) noexcept;

  /// Merges another accumulator (parallel-reduction friendly).
  void Merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t Count() const noexcept { return n_; }
  [[nodiscard]] bool Empty() const noexcept { return n_ == 0; }

  /// Mean of the samples. Requires Count() > 0.
  [[nodiscard]] double Mean() const;

  /// Unbiased sample variance. Requires Count() > 1 (returns 0 for n==1).
  [[nodiscard]] double Variance() const;

  /// Sample standard deviation (sqrt of Variance()).
  [[nodiscard]] double StdDev() const;

  /// Minimum / maximum sample. Requires Count() > 0.
  [[nodiscard]] double Min() const;
  [[nodiscard]] double Max() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean of a span. Requires non-empty input.
[[nodiscard]] double Mean(std::span<const double> xs);

/// Sample standard deviation of a span (0 for fewer than 2 samples).
[[nodiscard]] double StdDev(std::span<const double> xs);

/// p-quantile (0 <= p <= 1) with linear interpolation between order
/// statistics. Copies and sorts internally. Requires non-empty input.
[[nodiscard]] double Quantile(std::span<const double> xs, double p);

/// Quantile variant that selects directly in the caller's buffer (which is
/// permuted, not sorted) — the zero-alloc path. Value-identical to
/// Quantile on the same multiset, including across repeated calls on the
/// same (re-permuted) buffer. Requires non-empty input.
[[nodiscard]] double QuantileInPlace(std::span<double> xs, double p);

/// Median (Quantile with p = 0.5).
[[nodiscard]] double Median(std::span<const double> xs);

/// Empirical CDF P(X <= t) of an ascending-sorted sample (right-continuous
/// step function). Requires non-empty, sorted input.
[[nodiscard]] double EmpiricalCdf(std::span<const double> sorted_xs, double t);

/// Empirical tail (CCDF) P(X > t) of an ascending-sorted sample.
[[nodiscard]] double EmpiricalCcdf(std::span<const double> sorted_xs, double t);

/// Half-width of the Dvoretzky-Kiefer-Wolfowitz confidence band: with
/// probability >= `confidence`, sup_t |F_n(t) - F(t)| <= eps for
/// eps = sqrt(ln(2 / (1 - confidence)) / (2 n)). Distribution-free — the
/// slack the cross-validation harness grants empirical CDFs before calling
/// an analytic bound violated. Requires n >= 1 and confidence in (0, 1).
[[nodiscard]] double DkwEpsilon(std::size_t n, double confidence);

/// A two-sided confidence interval.
struct ConfidenceInterval {
  double lo = 0.0;
  double hi = 0.0;
};

/// DKW-derived confidence band for the p-quantile of a sorted sample:
/// [Quantile(p - eps), Quantile(p + eps)] with the band probabilities
/// clamped to [0, 1]. Requires non-empty sorted input, p in [0, 1].
[[nodiscard]] ConfidenceInterval DkwQuantileBand(
    std::span<const double> sorted_xs, double p, double confidence);

/// Percentile-bootstrap confidence interval for the p-quantile. Resamples
/// `resamples` times with replacement using the caller-seeded `rng` (fixed
/// seed => fixed interval; no ambient entropy). Requires non-empty input,
/// p in [0, 1], resamples >= 1 and confidence in (0, 1).
[[nodiscard]] ConfidenceInterval BootstrapQuantileCi(std::span<const double> xs,
                                                     double p, Rng rng,
                                                     int resamples = 200,
                                                     double confidence = 0.95);

/// Result of an ordinary least-squares fit y = slope*x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination in [0, 1]; 1 means a perfect fit.
  double r_squared = 0.0;
  /// Root-mean-square of the residuals.
  double rmse = 0.0;
};

/// Ordinary least squares over paired samples.
///
/// Returns nullopt if fewer than 2 points or if x is degenerate (zero
/// variance), in which case no line is identifiable.
[[nodiscard]] std::optional<LinearFit> FitLine(std::span<const double> xs,
                                               std::span<const double> ys);

}  // namespace wsnlink::util
