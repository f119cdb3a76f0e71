#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wsnlink::util {

void RunningStats::Add(double x) noexcept {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

// wsnstatic:allow(unreached): test-only; only RunningStats.Merge* tests
void RunningStats::Merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::Mean() const {
  if (n_ == 0) throw std::logic_error("RunningStats::Mean on empty accumulator");
  return mean_;
}

double RunningStats::Variance() const {
  if (n_ == 0) throw std::logic_error("RunningStats::Variance on empty accumulator");
  if (n_ == 1) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::StdDev() const { return std::sqrt(Variance()); }

double RunningStats::Min() const {
  if (n_ == 0) throw std::logic_error("RunningStats::Min on empty accumulator");
  return min_;
}

double RunningStats::Max() const {
  if (n_ == 0) throw std::logic_error("RunningStats::Max on empty accumulator");
  return max_;
}

double Mean(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("Mean of empty span");
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double StdDev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  RunningStats acc;
  for (const double x : xs) acc.Add(x);
  return acc.StdDev();
}

double Quantile(std::span<const double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("Quantile of empty span");
  std::vector<double> work(xs.begin(), xs.end());
  return QuantileInPlace(work, p);
}

double QuantileInPlace(std::span<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("Quantile of empty span");
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("Quantile p out of [0,1]");
  // Selection instead of a full sort: the interpolation only needs the
  // lo-th and (lo+1)-th order statistics, and nth_element leaves the tail
  // >= the pivot, so the next statistic is the tail's minimum. Identical
  // values to sorting, at O(n).
  const double pos = p * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  const auto lo_it = xs.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(xs.begin(), lo_it, xs.end());
  const double lo_v = *lo_it;
  const double hi_v =
      hi == lo ? lo_v : *std::min_element(lo_it + 1, xs.end());
  return lo_v * (1.0 - frac) + hi_v * frac;
}

double Median(std::span<const double> xs) { return Quantile(xs, 0.5); }

double EmpiricalCdf(std::span<const double> sorted_xs, double t) {
  if (sorted_xs.empty()) {
    throw std::invalid_argument("EmpiricalCdf of empty span");
  }
  const auto at_most =
      std::upper_bound(sorted_xs.begin(), sorted_xs.end(), t) -
      sorted_xs.begin();
  return static_cast<double>(at_most) / static_cast<double>(sorted_xs.size());
}

double EmpiricalCcdf(std::span<const double> sorted_xs, double t) {
  return 1.0 - EmpiricalCdf(sorted_xs, t);
}

double DkwEpsilon(std::size_t n, double confidence) {
  if (n == 0) throw std::invalid_argument("DkwEpsilon: n must be >= 1");
  if (confidence <= 0.0 || confidence >= 1.0) {
    throw std::invalid_argument("DkwEpsilon: confidence must be in (0, 1)");
  }
  const double alpha = 1.0 - confidence;
  return std::sqrt(std::log(2.0 / alpha) / (2.0 * static_cast<double>(n)));
}

// wsnstatic:allow(unreached): test-only; only the Stats.DkwQuantileBand* tests
ConfidenceInterval DkwQuantileBand(std::span<const double> sorted_xs, double p,
                                   double confidence) {
  if (sorted_xs.empty()) {
    throw std::invalid_argument("DkwQuantileBand of empty span");
  }
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("DkwQuantileBand: p out of [0,1]");
  }
  const double eps = DkwEpsilon(sorted_xs.size(), confidence);
  ConfidenceInterval band;
  band.lo = Quantile(sorted_xs, std::max(0.0, p - eps));
  band.hi = Quantile(sorted_xs, std::min(1.0, p + eps));
  return band;
}

ConfidenceInterval BootstrapQuantileCi(std::span<const double> xs, double p,
                                       Rng rng, int resamples,
                                       double confidence) {
  if (xs.empty()) {
    throw std::invalid_argument("BootstrapQuantileCi of empty span");
  }
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("BootstrapQuantileCi: p out of [0,1]");
  }
  if (resamples < 1) {
    throw std::invalid_argument("BootstrapQuantileCi: resamples must be >= 1");
  }
  if (confidence <= 0.0 || confidence >= 1.0) {
    throw std::invalid_argument(
        "BootstrapQuantileCi: confidence must be in (0, 1)");
  }
  const auto n = static_cast<std::int64_t>(xs.size());
  std::vector<double> resample(xs.size());
  std::vector<double> estimates;
  estimates.reserve(static_cast<std::size_t>(resamples));
  for (int r = 0; r < resamples; ++r) {
    for (auto& slot : resample) {
      slot = xs[static_cast<std::size_t>(rng.UniformInt(0, n - 1))];
    }
    estimates.push_back(Quantile(resample, p));
  }
  const double alpha = 1.0 - confidence;
  ConfidenceInterval ci;
  ci.lo = Quantile(estimates, alpha / 2.0);
  ci.hi = Quantile(estimates, 1.0 - alpha / 2.0);
  return ci;
}

std::optional<LinearFit> FitLine(std::span<const double> xs,
                                 std::span<const double> ys) {
  if (xs.size() != ys.size()) throw std::invalid_argument("FitLine: size mismatch");
  const std::size_t n = xs.size();
  if (n < 2) return std::nullopt;

  const double mx = Mean(xs);
  const double my = Mean(ys);
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0) return std::nullopt;

  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  double ss_res = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = ys[i] - (fit.slope * xs[i] + fit.intercept);
    ss_res += r * r;
  }
  fit.r_squared = (syy > 0.0) ? std::max(0.0, 1.0 - ss_res / syy) : 1.0;
  fit.rmse = std::sqrt(ss_res / static_cast<double>(n));
  return fit;
}

}  // namespace wsnlink::util
