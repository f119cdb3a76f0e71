// wsnbench: the wsnlink benchmark program.
//
//   wsnbench --workload campaign|contention|serve --seed N --seconds S
//            --trace 0|1 --work-dir DIR [--threads N] [--tiny 1]
//            [--trace-out FILE]
//
// Prints one JSON object: the output-check verdict, the operation tally and
// every metric the workload measured, by name with its unit. perfbench/run.py
// builds this program, runs it and reduces the object to the metric set that
// BENCHMARK.json names. Exit code 1 on a failed output check, 2 on a usage
// or run error.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "util/args.h"

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

void Print(const wsnbench::Report& report) {
  std::string out = "{\"correct\":";
  out += report.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(report.attempted);
  out += ",\"failed\":" + std::to_string(report.failed);
  out += ",\"metrics\":{";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : report.metrics) {
    const double v = std::isfinite(value.value) ? value.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (first ? "" : ",") + JsonString(name) + ":{\"value\":" + buf +
           ",\"unit\":" + JsonString(value.unit) + "}";
    first = false;
  }
  out += "},\"check_failures\":[";
  for (std::size_t i = 0; i < report.check_failures.size(); ++i) {
    out += (i ? "," : "") + JsonString(report.check_failures[i]);
  }
  out += "],\"notes\":{";
  first = true;
  for (const auto& [key, value] : report.notes) {
    out += (first ? "" : ",") + JsonString(key) + ":" + JsonString(value);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsnbench;
  try {
    const wsnlink::util::Args args(argc, argv);
    const std::string workload = args.GetString("--workload", "");
    RunConfig config;
    config.seed = args.GetSize("--seed", 1);
    config.seconds = args.GetDouble("--seconds", 10.0);
    config.trace = args.GetSize("--trace", 0) != 0;
    config.tiny = args.GetSize("--tiny", 0) != 0;
    // One core is left to the system and, in `serve`, to the client thread.
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    config.threads = static_cast<unsigned>(
        args.GetSize("--threads", nproc > 1 ? nproc - 1 : 1));
    config.work_dir = args.GetString("--work-dir", "");
    config.trace_path = args.GetString("--trace-out", "");
    if (config.work_dir.empty() || config.seconds <= 0.0 ||
        config.threads < 1) {
      std::fprintf(stderr, "wsnbench: need --work-dir, --seconds > 0, "
                           "--threads >= 1\n");
      return 2;
    }
    std::filesystem::create_directories(config.work_dir);
    SpanLog::Get().Enable(false);

    Report report;
    if (workload == "campaign") {
      report = RunCampaignWorkload(config);
    } else if (workload == "contention") {
      report = RunContentionWorkload(config);
    } else if (workload == "serve") {
      report = RunServeWorkload(config);
    } else {
      std::fprintf(stderr, "wsnbench: unknown --workload '%s'\n",
                   workload.c_str());
      return 2;
    }
    report.Set("peak_rss_mb", PeakRssMiB(), "MiB");
    std::filesystem::remove_all(config.work_dir);
    Print(report);
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wsnbench: %s\n", e.what());
    return 2;
  }
}
