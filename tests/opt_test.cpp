// Unit tests for the optimization layer: config space, objectives,
// guidelines, Pareto front, epsilon-constraint MOP and baselines.
#include <gtest/gtest.h>

#include <set>

#include "core/models/model_set.h"
#include "core/opt/baselines.h"
#include "core/opt/config_space.h"
#include "core/opt/epsilon_constraint.h"
#include "core/opt/guidelines.h"
#include "core/opt/objectives.h"
#include "core/opt/pareto.h"
#include "phy/frame.h"

namespace wsnlink::core::opt {
namespace {

// ------------------------------------------------------- config space ----

TEST(ConfigSpace, PaperTableISizes) {
  const auto space = ConfigSpace::PaperTableI();
  // 8 * 4 * 3 * 2 * 6 * 7 = 8064 settings per distance (paper Sec. II-C).
  EXPECT_EQ(space.SizePerDistance(), 8064u);
  // 6 distances -> 48384, "close to 50 thousand".
  EXPECT_EQ(space.Size(), 48384u);
  EXPECT_NO_THROW(space.Validate());
}

TEST(ConfigSpace, AtEnumeratesEveryConfigExactlyOnce) {
  ConfigSpace space;
  space.distances_m = {10, 20};
  space.pa_levels = {3, 31};
  space.max_tries = {1, 3};
  space.retry_delays_ms = {0};
  space.queue_capacities = {1, 30};
  space.pkt_intervals_ms = {50};
  space.payload_bytes = {20, 110};
  ASSERT_EQ(space.Size(), 32u);

  std::set<std::string> seen;
  for (std::size_t i = 0; i < space.Size(); ++i) {
    seen.insert(space.At(i).ToString());
  }
  EXPECT_EQ(seen.size(), 32u);
  EXPECT_THROW((void)space.At(32), std::out_of_range);
}

TEST(ConfigSpace, DistanceIsSlowestIndex) {
  const auto space = ConfigSpace::PaperTableI();
  // The first SizePerDistance() entries share the first distance — the
  // paper ran all per-distance combinations before moving the mote.
  EXPECT_DOUBLE_EQ(space.At(0).distance_m, 10.0);
  EXPECT_DOUBLE_EQ(space.At(space.SizePerDistance() - 1).distance_m, 10.0);
  EXPECT_DOUBLE_EQ(space.At(space.SizePerDistance()).distance_m, 15.0);
}

TEST(ConfigSpace, ForEachVisitsAll) {
  ConfigSpace space;
  space.distances_m = {10};
  space.pa_levels = {31};
  space.max_tries = {1, 3};
  space.retry_delays_ms = {0, 30};
  space.queue_capacities = {1};
  space.pkt_intervals_ms = {50};
  space.payload_bytes = {20};
  std::size_t count = 0;
  space.ForEach([&count](const StackConfig&) { ++count; });
  EXPECT_EQ(count, 4u);
}

TEST(ConfigSpace, ValidateCatchesBadValues) {
  auto space = ConfigSpace::PaperTableI();
  space.pa_levels.push_back(12);  // not a CC2420 level
  EXPECT_THROW(space.Validate(), std::invalid_argument);

  auto empty = ConfigSpace::PaperTableI();
  empty.payload_bytes.clear();
  EXPECT_THROW(empty.Validate(), std::invalid_argument);
}

// ---------------------------------------------------------- objectives ----

TEST(Objectives, CostOrientation) {
  models::MetricPrediction p;
  p.energy_uj_per_bit = 2.0;
  p.max_goodput_kbps = 10.0;
  p.total_delay_ms = 30.0;
  p.plr_total = 0.25;
  EXPECT_DOUBLE_EQ(MetricValue(p, Metric::kGoodput), 10.0);
  EXPECT_DOUBLE_EQ(MetricCost(p, Metric::kGoodput), -10.0);
  EXPECT_DOUBLE_EQ(MetricCost(p, Metric::kEnergy), 2.0);
  EXPECT_DOUBLE_EQ(MetricCost(p, Metric::kDelay), 30.0);
  EXPECT_DOUBLE_EQ(MetricCost(p, Metric::kLoss), 0.25);
}

// -------------------------------------------------------------- Pareto ----

models::MetricPrediction MakePrediction(double energy, double goodput) {
  models::MetricPrediction p;
  p.energy_uj_per_bit = energy;
  p.max_goodput_kbps = goodput;
  return p;
}

TEST(Pareto, DominationSemantics) {
  const std::vector<Metric> metrics{Metric::kEnergy, Metric::kGoodput};
  const auto better = MakePrediction(1.0, 20.0);
  const auto worse = MakePrediction(2.0, 10.0);
  const auto mixed = MakePrediction(0.5, 5.0);
  EXPECT_TRUE(Dominates(better, worse, metrics));
  EXPECT_FALSE(Dominates(worse, better, metrics));
  EXPECT_FALSE(Dominates(better, mixed, metrics));
  EXPECT_FALSE(Dominates(mixed, better, metrics));
  // Equal points do not dominate each other.
  EXPECT_FALSE(Dominates(better, better, metrics));
}

TEST(Pareto, FrontExtractsNonDominated) {
  const std::vector<Metric> metrics{Metric::kEnergy, Metric::kGoodput};
  std::vector<ParetoPoint> points;
  points.push_back({StackConfig{}, MakePrediction(1.0, 10.0)});  // front
  points.push_back({StackConfig{}, MakePrediction(2.0, 20.0)});  // front
  points.push_back({StackConfig{}, MakePrediction(2.5, 15.0)});  // dominated
  points.push_back({StackConfig{}, MakePrediction(0.5, 5.0)});   // front
  const auto front = ParetoFront(points, metrics);
  EXPECT_EQ(front.size(), 3u);
  for (const auto& p : front) {
    EXPECT_NE(p.prediction.energy_uj_per_bit, 2.5);
  }
}

// ------------------------------------------------- epsilon constraint ----

ConfigSpace SmallSpace() {
  ConfigSpace space;
  space.distances_m = {20.0};
  space.pa_levels = {3, 7, 11, 15, 19, 23, 27, 31};
  space.max_tries = {1, 3, 8};
  space.retry_delays_ms = {0.0};
  space.queue_capacities = {30};
  space.pkt_intervals_ms = {1.0};
  space.payload_bytes = {5, 20, 50, 80, 110, 114};
  return space;
}

TEST(EpsilonConstraint, UnconstrainedMatchesBruteForce) {
  const models::ModelSet models;
  const auto space = SmallSpace();
  Problem problem;
  problem.objective = Metric::kGoodput;
  const auto solution = SolveEpsilonConstraint(models, space, problem);
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ(solution->feasible_count, space.Size());

  // Brute force comparison.
  double best = -1.0;
  for (std::size_t i = 0; i < space.Size(); ++i) {
    const auto p = models.Predict(space.At(i));
    best = std::max(best, p.max_goodput_kbps);
  }
  EXPECT_NEAR(solution->prediction.max_goodput_kbps, best, 1e-9);
}

TEST(EpsilonConstraint, ConstraintsFilterFeasibleSet) {
  const models::ModelSet models;
  const auto space = SmallSpace();
  Problem problem;
  problem.objective = Metric::kGoodput;
  problem.constraints.push_back(AtMost(Metric::kEnergy, 0.20));
  const auto solution = SolveEpsilonConstraint(models, space, problem);
  ASSERT_TRUE(solution.has_value());
  EXPECT_LE(solution->prediction.energy_uj_per_bit, 0.20);
  EXPECT_LT(solution->feasible_count, space.Size());

  // Tightening the budget can only reduce the achievable goodput.
  Problem tighter = problem;
  tighter.constraints[0] = AtMost(Metric::kEnergy, 0.175);
  const auto tight_solution = SolveEpsilonConstraint(models, space, tighter);
  ASSERT_TRUE(tight_solution.has_value());
  EXPECT_LE(tight_solution->prediction.max_goodput_kbps,
            solution->prediction.max_goodput_kbps + 1e-9);
}

TEST(EpsilonConstraint, InfeasibleReturnsNullopt) {
  const models::ModelSet models;
  Problem problem;
  problem.objective = Metric::kEnergy;
  problem.constraints.push_back(GoodputAtLeast(10000.0));  // impossible
  EXPECT_FALSE(SolveEpsilonConstraint(models, SmallSpace(), problem));
}

TEST(EpsilonConstraint, FixedSnrOverridesPlacement) {
  const models::ModelSet models;
  const auto space = SmallSpace();
  Problem at_6db;
  at_6db.objective = Metric::kGoodput;
  at_6db.fixed_snr_db = 6.0;
  const auto grey = SolveEpsilonConstraint(models, space, at_6db);
  ASSERT_TRUE(grey.has_value());
  // In the grey zone retransmissions are essential for goodput.
  EXPECT_GT(grey->config.max_tries, 1);

  // Without retransmission the grey-zone goodput-optimal payload is NOT
  // the maximum (Sec. V-C / Fig. 13 left panel).
  auto no_retx_space = space;
  no_retx_space.max_tries = {1};
  const auto no_retx = SolveEpsilonConstraint(models, no_retx_space, at_6db);
  ASSERT_TRUE(no_retx.has_value());
  EXPECT_LT(no_retx->config.payload_bytes, phy::kMaxPayloadBytes);
  // And its goodput is below the retransmitting optimum.
  EXPECT_LT(no_retx->prediction.max_goodput_kbps,
            grey->prediction.max_goodput_kbps);
}

TEST(EvaluateSpace, ReturnsEveryPoint) {
  const models::ModelSet models;
  const auto space = SmallSpace();
  const auto points = EvaluateSpace(models, space);
  EXPECT_EQ(points.size(), space.Size());
}

// ---------------------------------------------------------- guidelines ----

TEST(Guidelines, EnergyShortLinkUsesMinimalPowerMaxPayload) {
  Guidelines g;
  Deployment dep;
  dep.distance_m = 10.0;
  const auto rec = g.MinimizeEnergy(dep);
  EXPECT_EQ(rec.config.payload_bytes, phy::kMaxPayloadBytes);
  EXPECT_LT(rec.config.pa_level, 31);  // close link: low power suffices
  // The recommended link sits in (or above) the low-impact zone.
  EXPECT_GE(rec.predicted.snr_db, models::kEnergyMaxPayloadSnrDb - 1e-9);
}

TEST(Guidelines, EnergyRecommendationBeatsNaiveMaxPower) {
  Guidelines g;
  Deployment dep;
  dep.distance_m = 25.0;
  const auto rec = g.MinimizeEnergy(dep);

  StackConfig naive = rec.config;
  naive.pa_level = 31;
  naive.payload_bytes = 20;
  const auto naive_prediction = g.Models().Predict(naive);
  EXPECT_LT(rec.predicted.energy_uj_per_bit,
            naive_prediction.energy_uj_per_bit);
}

TEST(Guidelines, GoodputUsesMaxPayloadOutsideGreyZone) {
  Guidelines g;
  Deployment dep;
  dep.distance_m = 15.0;
  const auto rec = g.MaximizeGoodput(dep);
  EXPECT_EQ(rec.config.payload_bytes, phy::kMaxPayloadBytes);
  EXPECT_EQ(rec.config.max_tries, 8);
}

TEST(Guidelines, DelayKeepsUtilizationBelowOne) {
  Guidelines g;
  Deployment dep;
  dep.distance_m = 20.0;
  dep.pkt_interval_ms = 100.0;
  const auto rec = g.MinimizeDelay(dep);
  EXPECT_LT(rec.predicted.utilization, 1.0);
  EXPECT_EQ(rec.config.queue_capacity, 1);
  EXPECT_DOUBLE_EQ(rec.config.retry_delay_ms, 0.0);
}

TEST(Guidelines, LossMeetsTargetWhenFeasible) {
  Guidelines g;
  Deployment dep;
  dep.distance_m = 20.0;
  dep.pkt_interval_ms = 200.0;
  const auto rec = g.MinimizeLoss(dep, 0.01);
  EXPECT_LE(rec.predicted.plr_radio, 0.01 + 1e-9);
  EXPECT_LT(rec.predicted.utilization, 1.0);
}

TEST(Guidelines, LossFallsBackToLargeQueueWhenSaturated) {
  Guidelines g;
  Deployment dep;
  dep.distance_m = 35.0;
  dep.pkt_interval_ms = 5.0;  // brutal arrival rate: rho >= 1 inevitable
  const auto rec = g.MinimizeLoss(dep, 0.01);
  EXPECT_EQ(rec.config.queue_capacity, 30);
}

// ----------------------------------------------------------- baselines ----

TEST(Baselines, EachPolicyChangesOnlyItsKnob) {
  const auto base = CaseStudyBaseConfig(35.0);
  const auto power = TunePowerBaseline(base);
  EXPECT_EQ(power.config.pa_level, 31);
  EXPECT_EQ(power.config.payload_bytes, base.payload_bytes);
  EXPECT_EQ(power.config.max_tries, base.max_tries);

  const auto retx = TuneRetransmissionsBaseline(base);
  EXPECT_EQ(retx.config.pa_level, base.pa_level);
  EXPECT_EQ(retx.config.max_tries, 8);

  const auto min_payload = MinPayloadBaseline(base);
  EXPECT_EQ(min_payload.config.payload_bytes, 5);
  const auto max_payload = MaxPayloadBaseline(base);
  EXPECT_EQ(max_payload.config.payload_bytes, phy::kMaxPayloadBytes);
}

TEST(Baselines, JointTuningDominatesSinglesOnCaseStudyLink) {
  // Evaluate all policies at the case-study link quality (6 dB at max
  // power; single-knob policies that keep P_tx=23 sit at ~3 dB).
  const models::ModelSet models(
      models::kPaperPerFit, models::kPaperNtriesFit, models::kPaperPlrFit,
      models::LinkQualityMap(channel::PathLossParams{}, -95.0, -17.0));
  const auto base = CaseStudyBaseConfig(35.0);
  const auto joint = JointTuning(models, base, 0.45);
  const auto joint_prediction = models.Predict(joint.config);

  for (const auto& single :
       {TunePowerBaseline(base), TuneRetransmissionsBaseline(base),
        MinPayloadBaseline(base), MaxPayloadBaseline(base)}) {
    const auto p = models.Predict(single.config);
    EXPECT_GT(joint_prediction.max_goodput_kbps, p.max_goodput_kbps)
        << single.name;
  }
  // And it respects the energy budget.
  EXPECT_LE(joint_prediction.energy_uj_per_bit, 0.45 + 1e-9);
}

TEST(Baselines, AllPoliciesReturnsFiveNamedChoices) {
  const models::ModelSet models;
  const auto base = CaseStudyBaseConfig(30.0);
  const auto all = AllPolicies(models, base, 0.0);
  ASSERT_EQ(all.size(), 5u);
  std::set<std::string> names;
  for (const auto& choice : all) names.insert(choice.name);
  EXPECT_EQ(names.size(), 5u);
}

}  // namespace
}  // namespace wsnlink::core::opt
