// Parameterized validation of the Sec. IV-C / V-C / VI-B / VII-B guidelines
// against the simulator: across deployments, each guideline's
// recommendation must actually deliver on its own metric when measured,
// not just in model arithmetic.
#include <gtest/gtest.h>

#include <string>

#include "core/opt/guidelines.h"
#include "metrics/link_metrics.h"
#include "node/link_simulation.h"

namespace wsnlink::core::opt {
namespace {

struct DeploymentCase {
  double distance_m;
  double pkt_interval_ms;
};

class GuidelineSweep : public ::testing::TestWithParam<DeploymentCase> {
 protected:
  static metrics::LinkMetrics Measure(const StackConfig& config,
                                      std::uint64_t seed) {
    node::SimulationOptions options;
    options.config = config;
    options.seed = seed;
    options.packet_count = 900;
    return metrics::MeasureConfig(options);
  }

  static StackConfig Naive(const DeploymentCase& dep) {
    StackConfig config;
    config.distance_m = dep.distance_m;
    config.pkt_interval_ms = dep.pkt_interval_ms;
    config.pa_level = 31;
    config.max_tries = 1;
    config.queue_capacity = 1;
    config.payload_bytes = 30;
    return config;
  }
};

TEST_P(GuidelineSweep, EnergyGuidelineBeatsNaiveOnEnergy) {
  const Deployment dep{GetParam().distance_m, GetParam().pkt_interval_ms};
  const Guidelines g;
  const auto rec = g.MinimizeEnergy(dep);
  const auto recommended = Measure(rec.config, 1000);
  const auto naive = Measure(Naive(GetParam()), 1000);
  ASSERT_GT(recommended.delivered_unique, 100u);
  EXPECT_LT(recommended.energy_uj_per_bit, naive.energy_uj_per_bit)
      << rec.config.ToString();
}

TEST_P(GuidelineSweep, LossGuidelineMeetsItsTarget) {
  const Deployment dep{GetParam().distance_m, GetParam().pkt_interval_ms};
  const Guidelines g;
  const auto rec = g.MinimizeLoss(dep, 0.01);
  const auto measured = Measure(rec.config, 1001);
  // Target 1%; allow measurement noise + interference bursts.
  EXPECT_LT(measured.plr_total, 0.04) << rec.config.ToString();
}

TEST_P(GuidelineSweep, DelayGuidelineAvoidsQueueing) {
  const Deployment dep{GetParam().distance_m, GetParam().pkt_interval_ms};
  const Guidelines g;
  const auto rec = g.MinimizeDelay(dep);
  const auto measured = Measure(rec.config, 1002);
  ASSERT_GT(measured.delivered_unique, 100u);
  // No queue build-up: waiting time well under one service time.
  EXPECT_LT(measured.mean_queue_wait_ms, measured.mean_service_ms)
      << rec.config.ToString();
  EXPECT_LT(measured.utilization, 1.0);
}

TEST_P(GuidelineSweep, GoodputGuidelineSaturatesTheLink) {
  const Deployment dep{GetParam().distance_m, GetParam().pkt_interval_ms};
  const Guidelines g;
  const auto rec = g.MaximizeGoodput(dep);
  auto config = rec.config;
  const auto measured = Measure(config, 1003);
  // Bulk mode floods the queue (1 ms arrivals): most of the 900 generated
  // packets drop at the queue and only the served stream matters.
  // At least 60% of the model's saturated prediction must be realised
  // (the model is an upper bound at poor SNR).
  ASSERT_GT(measured.delivered_unique, 40u);
  EXPECT_GT(measured.goodput_kbps,
            0.6 * rec.predicted.max_goodput_kbps)
      << rec.config.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Deployments, GuidelineSweep,
    ::testing::Values(DeploymentCase{10.0, 100.0}, DeploymentCase{15.0, 60.0},
                      DeploymentCase{20.0, 100.0}, DeploymentCase{25.0, 150.0},
                      DeploymentCase{30.0, 100.0},
                      DeploymentCase{35.0, 200.0}),
    [](const ::testing::TestParamInfo<DeploymentCase>& info) {
      // += rather than "literal" + std::string&&: GCC 12 reports a false
      // -Wrestrict overlap on the latter.
      std::string name = "d";
      name += std::to_string(static_cast<int>(info.param.distance_m));
      name += "_t";
      name += std::to_string(static_cast<int>(info.param.pkt_interval_ms));
      return name;
    });

}  // namespace
}  // namespace wsnlink::core::opt
