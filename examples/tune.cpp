// tune — command-line configuration advisor.
//
// Feed it your deployment (distance, packet interval, payload per reading)
// and an objective; it prints the recommended multi-layer configuration,
// the model-predicted outcome, and a simulated verification run.
//
// Usage:
//   tune --distance 25 --interval 100 [--objective energy|goodput|delay|loss]
//        [--loss-target 0.01] [--energy-budget 0.3] [--verify]
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "core/opt/epsilon_constraint.h"
#include "util/args.h"
#include "core/opt/guidelines.h"
#include "metrics/link_metrics.h"
#include "node/link_simulation.h"
#include "util/table.h"

namespace {

using namespace wsnlink;

void PrintRecommendation(const core::opt::Recommendation& rec, bool verify) {
  std::cout << "recommended configuration: " << rec.config.ToString() << "\n"
            << "rationale: " << rec.rationale << "\n\n";

  util::TextTable table({"metric", "model prediction", "verified (sim)"});
  metrics::LinkMetrics measured;
  if (verify) {
    node::SimulationOptions options;
    options.config = rec.config;
    options.seed = 1;
    options.packet_count = 2000;
    measured = metrics::MeasureConfig(options);
  }
  const auto add = [&](const char* name, double predicted, double actual,
                       int precision) {
    table.NewRow().Add(name).Add(predicted, precision);
    if (verify) {
      table.Add(actual, precision);
    } else {
      table.Add("-");
    }
  };
  add("energy [uJ/bit]", rec.predicted.energy_uj_per_bit,
      measured.energy_uj_per_bit, 3);
  // Note: the model column is the SATURATED maximum goodput; the verified
  // column is the goodput of the deployment's actual offered load.
  add("goodput [kbps] (model=saturated)", rec.predicted.max_goodput_kbps,
      measured.goodput_kbps, 2);
  add("delay [ms]", rec.predicted.total_delay_ms, measured.mean_delay_ms, 2);
  add("loss rate", rec.predicted.plr_total, measured.plr_total, 4);
  add("utilization rho", rec.predicted.utilization, measured.utilization, 3);
  std::cout << table;
}

}  // namespace

int main(int argc, char** argv) {
  double distance = 20.0;
  double interval = 100.0;
  std::string objective = "energy";
  double loss_target = 0.01;
  double energy_budget = 0.0;
  bool verify = false;

  try {
    const util::Args args(argc, argv,
                          {"--distance", "--interval", "--objective",
                           "--loss-target", "--energy-budget"},
                          {"--verify"});
    distance = args.GetDouble("--distance", distance);
    interval = args.GetDouble("--interval", interval);
    objective = args.GetString("--objective", objective);
    loss_target = args.GetDouble("--loss-target", loss_target);
    energy_budget = args.GetDouble("--energy-budget", energy_budget);
    verify = args.Has("--verify");
    if (!args.Positional().empty()) {
      throw std::invalid_argument("unexpected positional argument");
    }
  } catch (const std::exception& e) {
    std::cerr << e.what()
              << "\nusage: tune --distance M --interval MS "
                 "[--objective energy|goodput|delay|loss] "
                 "[--loss-target F] [--energy-budget UJ] [--verify]\n";
    return 2;
  }

  std::cout << "deployment: " << distance << " m link, one packet every "
            << interval << " ms; objective: " << objective << "\n\n";

  core::opt::Deployment deployment;
  deployment.distance_m = distance;
  deployment.pkt_interval_ms = interval;
  const core::opt::Guidelines guidelines;

  if (objective == "energy") {
    PrintRecommendation(guidelines.MinimizeEnergy(deployment), verify);
  } else if (objective == "delay") {
    PrintRecommendation(guidelines.MinimizeDelay(deployment), verify);
  } else if (objective == "loss") {
    PrintRecommendation(guidelines.MinimizeLoss(deployment, loss_target),
                        verify);
  } else if (objective == "goodput") {
    if (energy_budget > 0.0) {
      // Joint epsilon-constraint search instead of the plain guideline.
      core::opt::ConfigSpace space;
      space.distances_m = {distance};
      space.pa_levels = {3, 7, 11, 15, 19, 23, 27, 31};
      space.max_tries = {1, 2, 3, 5, 8};
      space.retry_delays_ms = {0.0};
      space.queue_capacities = {30};
      space.pkt_intervals_ms = {interval};
      space.payload_bytes = {5,  10, 20, 30, 40, 50,  60,
                             70, 80, 90, 100, 110, 114};
      core::opt::Problem problem;
      problem.objective = core::opt::Metric::kGoodput;
      problem.constraints.push_back(
          core::opt::AtMost(core::opt::Metric::kEnergy, energy_budget));
      const auto solution = core::opt::SolveEpsilonConstraint(
          guidelines.Models(), space, problem);
      if (!solution) {
        std::cout << "no configuration satisfies the energy budget of "
                  << energy_budget << " uJ/bit on this link\n";
        return 1;
      }
      core::opt::Recommendation rec;
      rec.config = solution->config;
      rec.predicted = solution->prediction;
      rec.rationale = "epsilon-constraint: max goodput s.t. energy budget (" +
                      std::to_string(solution->feasible_count) +
                      " feasible configs)";
      PrintRecommendation(rec, verify);
    } else {
      PrintRecommendation(guidelines.MaximizeGoodput(deployment), verify);
    }
  } else {
    std::cerr << "unknown objective '" << objective << "'\n";
    return 2;
  }
  return 0;
}
