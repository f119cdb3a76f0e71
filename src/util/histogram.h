// Fixed-width-bin histogram used for the distribution figures (noise floor /
// SNR distributions of Fig. 5) and for latency distributions in the metrics
// layer.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace wsnlink::util {

/// Histogram over [lo, hi) with `bins` equal-width bins plus underflow and
/// overflow counters.
class Histogram {
 public:
  /// Requires lo < hi and bins >= 1.
  Histogram(double lo, double hi, std::size_t bins);

  void Add(double x) noexcept;

  /// Adds `weight` occurrences of x (weight >= 0).
  void Add(double x, std::size_t weight) noexcept;

  /// Count in bin i (0-based). Requires i < BinCount().
  [[nodiscard]] std::size_t Count(std::size_t i) const;

  /// Lower edge / centre of bin i.
  [[nodiscard]] double BinLow(std::size_t i) const;
  [[nodiscard]] double BinCenter(std::size_t i) const;

  // wsnstatic:allow(unreached): test-only; Histogram.CountsAndEdges reads it
  [[nodiscard]] std::size_t Underflow() const noexcept { return underflow_; }
  // wsnstatic:allow(unreached): test-only; Histogram.CountsAndEdges reads it
  [[nodiscard]] std::size_t Overflow() const noexcept { return overflow_; }

  /// Total samples, including under/overflow.
  // wsnstatic:allow(unreached): test-only; Histogram.CountsAndEdges reads it
  [[nodiscard]] std::size_t Total() const noexcept { return total_; }

  /// Fraction of all samples falling in bin i (0 if Total() == 0).
  [[nodiscard]] double Fraction(std::size_t i) const;

  /// Empirical CDF evaluated at the upper edge of bin i (under/overflow
  /// included in the total).
  [[nodiscard]] double CdfAtBin(std::size_t i) const;

  /// Index of the most populated bin. Requires at least one in-range sample.
  [[nodiscard]] std::size_t ModeBin() const;

  /// Renders a compact ASCII bar chart (one line per bin), for bench output.
  [[nodiscard]] std::string ToAscii(std::size_t max_width = 50) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace wsnlink::util
