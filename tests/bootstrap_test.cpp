// Tests for the bootstrap confidence intervals.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/fit/bootstrap.h"
#include "util/rng.h"

namespace wsnlink::core::fit {
namespace {

std::vector<ScaledExpSample> NoisySamples(double a, double b, double noise,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<ScaledExpSample> samples;
  for (const double l : {20.0, 50.0, 80.0, 110.0}) {
    for (double snr = 5.0; snr <= 24.0; snr += 1.0) {
      ScaledExpSample s;
      s.payload_bytes = l;
      s.snr_db = snr;
      s.value = std::max(
          0.0, a * l * std::exp(b * snr) * (1.0 + rng.Gaussian(0.0, noise)));
      samples.push_back(s);
    }
  }
  return samples;
}

TEST(Bootstrap, IntervalsCoverTrueCoefficients) {
  const auto samples = NoisySamples(0.0128, -0.15, 0.08, 1);
  const auto result =
      BootstrapScaledExponential(samples, util::Rng(2), {200, 0.95});
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->a.Contains(0.0128))
      << "[" << result->a.lo << ", " << result->a.hi << "]";
  EXPECT_TRUE(result->b.Contains(-0.15))
      << "[" << result->b.lo << ", " << result->b.hi << "]";
  EXPECT_GE(result->successful_replicates, 150);
  EXPECT_LT(result->a.lo, result->a.hi);
  EXPECT_LT(result->b.lo, result->b.hi);
}

TEST(Bootstrap, NoiselessDataGivesTightIntervals) {
  const auto samples = NoisySamples(0.02, -0.18, 0.0, 3);
  const auto result =
      BootstrapScaledExponential(samples, util::Rng(4), {100, 0.95});
  ASSERT_TRUE(result.has_value());
  EXPECT_LT(result->a.hi - result->a.lo, 1e-6);
  EXPECT_LT(result->b.hi - result->b.lo, 1e-5);
}

TEST(Bootstrap, MoreNoiseWidensIntervals) {
  const auto quiet = BootstrapScaledExponential(
      NoisySamples(0.011, -0.145, 0.05, 5), util::Rng(6), {150, 0.95});
  const auto loud = BootstrapScaledExponential(
      NoisySamples(0.011, -0.145, 0.30, 5), util::Rng(6), {150, 0.95});
  ASSERT_TRUE(quiet.has_value());
  ASSERT_TRUE(loud.has_value());
  EXPECT_GT(loud->b.hi - loud->b.lo, quiet->b.hi - quiet->b.lo);
}

TEST(Bootstrap, DeterministicForSameSeed) {
  const auto samples = NoisySamples(0.0128, -0.15, 0.1, 7);
  const auto a = BootstrapScaledExponential(samples, util::Rng(8));
  const auto b = BootstrapScaledExponential(samples, util::Rng(8));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_DOUBLE_EQ(a->a.lo, b->a.lo);
  EXPECT_DOUBLE_EQ(a->b.hi, b->b.hi);
}

TEST(Bootstrap, DegenerateInputReturnsNullopt) {
  std::vector<ScaledExpSample> flat(20, ScaledExpSample{50.0, 10.0, 0.1});
  EXPECT_FALSE(
      BootstrapScaledExponential(flat, util::Rng(9)).has_value());
}

TEST(Bootstrap, InvalidOptionsRejected) {
  const auto samples = NoisySamples(0.0128, -0.15, 0.1, 10);
  EXPECT_THROW((void)BootstrapScaledExponential(samples, util::Rng(1),
                                                {1, 0.95}),
               std::invalid_argument);
  EXPECT_THROW((void)BootstrapScaledExponential(samples, util::Rng(1),
                                                {100, 1.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace wsnlink::core::fit
