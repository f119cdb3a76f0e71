#include "util/histogram.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace wsnlink::util {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (!(lo < hi)) throw std::invalid_argument("Histogram: lo must be < hi");
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be >= 1");
}

void Histogram::Add(double x) noexcept { Add(x, 1); }

void Histogram::Add(double x, std::size_t weight) noexcept {
  total_ += weight;
  if (x < lo_) {
    underflow_ += weight;
    return;
  }
  if (x >= hi_) {
    overflow_ += weight;
    return;
  }
  auto idx = static_cast<std::size_t>((x - lo_) / width_);
  idx = std::min(idx, counts_.size() - 1);  // guard against FP edge at hi_
  counts_[idx] += weight;
}

std::size_t Histogram::Count(std::size_t i) const {
  if (i >= counts_.size()) throw std::out_of_range("Histogram::Count");
  return counts_[i];
}

double Histogram::BinLow(std::size_t i) const {
  if (i >= counts_.size()) throw std::out_of_range("Histogram::BinLow");
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::BinCenter(std::size_t i) const {
  return BinLow(i) + width_ / 2.0;
}

// wsnstatic:allow(unreached): test-only; only Histogram.WeightedAddAndMode
double Histogram::Fraction(std::size_t i) const {
  if (i >= counts_.size()) throw std::out_of_range("Histogram::Fraction");
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[i]) / static_cast<double>(total_);
}

// wsnstatic:allow(unreached): test-only; only Histogram.CdfReachesOne
double Histogram::CdfAtBin(std::size_t i) const {
  if (i >= counts_.size()) throw std::out_of_range("Histogram::CdfAtBin");
  std::size_t below = underflow_;
  for (std::size_t k = 0; k <= i; ++k) below += counts_[k];
  if (total_ == 0) return 0.0;
  return static_cast<double>(below) / static_cast<double>(total_);
}

// wsnstatic:allow(unreached): test-only; only Histogram.WeightedAddAndMode
std::size_t Histogram::ModeBin() const {
  const auto it = std::max_element(counts_.begin(), counts_.end());
  if (it == counts_.end() || *it == 0) {
    throw std::logic_error("Histogram::ModeBin: no in-range samples");
  }
  return static_cast<std::size_t>(it - counts_.begin());
}

std::string Histogram::ToAscii(std::size_t max_width) const {
  std::size_t peak = 1;
  for (const std::size_t c : counts_) peak = std::max(peak, c);
  std::string out;
  char line[64];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    std::snprintf(line, sizeof(line), "%10.2f | ", BinCenter(i));
    out += line;
    const auto bar =
        static_cast<std::size_t>(static_cast<double>(counts_[i]) /
                                 static_cast<double>(peak) *
                                 static_cast<double>(max_width));
    out.append(bar, '#');
    std::snprintf(line, sizeof(line), " %zu\n", counts_[i]);
    out += line;
  }
  return out;
}

}  // namespace wsnlink::util
