// Prints the service-curve delay bounds next to the measured delay
// distribution for one configuration — the CLI face of the cross-
// validation harness (src/validate/).
//
//   delay_bounds --distance 25 --pa 31 --payload 110 --tries 3
//                --interval 100 --packets 1000
//
// Useful both to sanity-check a tuned configuration ("is my p99 close to
// the analytic worst case?") and to reproduce a bound-violation failure
// from tests/validation_servicecurve_test.cpp interactively. The
// --per-scale flag deliberately mis-parameterises the analytic PER (e.g.
// 0.5 = "the model thinks the channel is twice as good") to demonstrate
// the harness catching a wrong model.
#include <cstdio>
#include <exception>
#include <string>

#include "util/args.h"
#include "validate/cross_validation.h"

namespace {

int Run(int argc, char** argv) {
  using wsnlink::util::Args;
  const Args args(argc, argv,
                  {"--distance", "--pa", "--tries", "--retry", "--queue",
                   "--interval", "--payload", "--packets", "--seed",
                   "--wakeup", "--nodes", "--confidence", "--per-scale"},
                  {"--lpl", "--no-interference", "--no-shadowing"});

  wsnlink::validate::CrossValidationOptions options;
  auto& config = options.sim.config;
  config.distance_m = args.GetDouble("--distance", 20.0);
  config.pa_level = args.GetInt("--pa", 31);
  config.max_tries = args.GetPositiveInt("--tries", 3);
  config.retry_delay_ms = args.GetDouble("--retry", 0.0);
  config.queue_capacity = args.GetPositiveInt("--queue", 1);
  config.pkt_interval_ms = args.GetDouble("--interval", 100.0);
  config.payload_bytes = args.GetPositiveInt("--payload", 110);

  options.sim.packet_count = args.GetPositiveInt("--packets", 1000);
  options.sim.seed = static_cast<std::uint64_t>(args.GetSize("--seed", 1));
  options.sim.disable_interference = args.Has("--no-interference");
  options.sim.disable_temporal_shadowing = args.Has("--no-shadowing");
  if (args.Has("--lpl")) {
    options.sim.mac = wsnlink::node::MacKind::kLpl;
    options.sim.lpl_wakeup_interval_ms = args.GetDouble("--wakeup", 100.0);
  }
  options.nodes = args.GetPositiveInt("--nodes", 1);
  options.confidence = args.GetDouble("--confidence", 0.999);
  options.curve.per_scale = args.GetDouble("--per-scale", 1.0);

  const auto report = wsnlink::validate::RunCrossValidation(options);

  std::printf("config: %s  mac=%s nodes=%d packets=%d seed=%llu\n",
              config.ToString().c_str(),
              options.sim.mac == wsnlink::node::MacKind::kLpl ? "lpl" : "csma",
              options.nodes, options.sim.packet_count,
              static_cast<unsigned long long>(options.sim.seed));
  std::printf("%s", report.ToString().c_str());
  return report.Passed() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "delay_bounds: %s\n"
                 "usage: delay_bounds [--distance M] [--pa LEVEL] "
                 "[--payload B] [--tries N] [--retry MS] [--queue Q] "
                 "[--interval MS] [--packets N] [--seed S] [--nodes N] "
                 "[--lpl] [--wakeup MS] [--per-scale X] [--confidence C] "
                 "[--no-interference] [--no-shadowing]\n",
                 e.what());
    return 2;
  }
}
