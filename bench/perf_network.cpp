// Macro-benchmark for the sequential network kernel.
//
// Runs contended uniform topologies at a ladder of node counts and reports
// events/sec per rung. Every rung is one RunNetworkSimulation call on one
// thread: a contended run shares one collision domain, so it has no
// independent parts to spread across cores (sweeps, campaigns and serving
// parallelise across runs instead). Each rung runs once untimed to warm
// up, then `--repeat` timed runs; the fastest one is reported.
//
// `--check <json>` re-runs the workload and fails (exit 1) if the
// calibration-normalized events/sec on the largest rung regressed by more
// than the tolerance versus the committed BENCH_network.json — the CI
// "network ladder gate".
//
// Usage:
//   perf_network [--out BENCH_network.json] [--check BENCH_network.json]
//                [--tolerance 0.30] [--nodes 64,256,1024] [--packets 15]
//                [--repeat 1]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "node/network_simulation.h"
#include "util/args.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Same fixed integer workload as perf_sweep: calibrates machine speed so
// normalized figures are comparable across hosts.
double CalibrationScore() {
  constexpr std::uint64_t kIters = 40'000'000;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x += i;
  }
  const auto t1 = Clock::now();
  const double jitter = static_cast<double>(x & 1) * 1e-9;
  return static_cast<double>(kIters) / Seconds(t0, t1) / 1e6 + jitter;
}

std::vector<int> ParseIntList(const std::string& list, const char* flag) {
  std::vector<int> out;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const std::size_t comma = list.find(',', begin);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    out.push_back(
        wsnlink::util::ParsePositiveInt(list.substr(begin, end - begin), flag));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

wsnlink::node::NetworkOptions Topology(int nodes, int packets) {
  wsnlink::node::SimulationOptions base;
  base.config.distance_m = 20.0;
  base.config.pkt_interval_ms = 25.0;
  base.seed = 20150629;
  base.packet_count = packets;
  // Pure emergent contention: every conflict comes from the contenders, as
  // in the contention study.
  base.disable_interference = true;
  base.interferer_duty_cycle = 0.0;
  return wsnlink::node::UniformNetwork(
      base, std::vector<double>(static_cast<std::size_t>(nodes), 20.0));
}

struct Rung {
  int nodes = 0;
  std::uint64_t events = 0;
  double seconds = 0.0;
  double events_per_sec = 0.0;
};

// Pulls `"key": <number>` out of a JSON file written by this tool (the
// bench owns both sides of the format). -1 when missing/non-numeric.
double JsonNumber(const std::string& text, const std::string& key) {
  const auto pos = text.find("\"" + key + "\"");
  if (pos == std::string::npos) return -1.0;
  const auto colon = text.find(':', pos);
  if (colon == std::string::npos) return -1.0;
  auto begin = text.find_first_not_of(" \t\n", colon + 1);
  if (begin == std::string::npos) return -1.0;
  auto end = text.find_first_of(",\n}", begin);
  if (end == std::string::npos) end = text.size();
  const auto last = text.find_last_not_of(" \t", end - 1);
  try {
    return wsnlink::util::ParseDouble(text.substr(begin, last - begin + 1),
                                      key);
  } catch (const std::invalid_argument&) {
    return -1.0;
  }
}

void WriteJson(const std::string& path, const std::vector<Rung>& ladder,
               int packets, unsigned host_cores, double calib_mops,
               double seq_normalized) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"schema\": \"wsnlink-bench-network-v2\",\n";
  out << "  \"workload\": {\n    \"nodes\": [";
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    out << (i ? "," : "") << ladder[i].nodes;
  }
  out << "],\n    \"packets_per_node\": " << packets
      << ",\n    \"base_seed\": 20150629\n  },\n";
  out << "  \"host_cores\": " << host_cores << ",\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f", calib_mops);
  out << "  \"calibration_mops\": " << buf << ",\n";
  out << "  \"ladder\": [\n";
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.0f", ladder[i].events_per_sec);
    out << "    {\"nodes\": " << ladder[i].nodes
        << ", \"events_per_sec\": " << buf << "}"
        << (i + 1 < ladder.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  std::snprintf(buf, sizeof(buf), "%.2f", seq_normalized);
  out << "  \"seq_events_per_sec_per_calib_mop\": " << buf << "\n";
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsnlink;

  const util::Args args = util::ParseArgsOrExit(
      argc, argv,
      {"--nodes", "--packets", "--repeat", "--tolerance", "--out", "--check"},
      {"--help"});
  if (args.Has("--help")) {
    std::printf(
        "usage: perf_network [--out BENCH_network.json]"
        " [--check BENCH_network.json]\n"
        "                    [--tolerance 0.30] [--nodes 64,256,1024]"
        " [--packets 15]\n"
        "                    [--repeat 1]\n");
    return 0;
  }
  const auto node_list = ParseIntList(args.GetString("--nodes", "64,256,1024"),
                                      "--nodes");
  const int packets = args.GetPositiveInt("--packets", 15);
  const auto repeat = args.GetSize("--repeat", 1);
  const double tolerance = args.GetDouble("--tolerance", 0.30);
  const std::string out_path = args.GetString("--out", "");
  const std::string check_path = args.GetString("--check", "");
  const unsigned host_cores = std::thread::hardware_concurrency();

  std::printf("perf_network: %zu node rungs, %d packets/node, "
              "host_cores=%u\n",
              node_list.size(), packets, host_cores);

  const double calib_mops = CalibrationScore();
  std::vector<Rung> ladder;
  for (const int nodes : node_list) {
    Rung rung;
    rung.nodes = nodes;
    rung.seconds = 1e300;
    const auto options = Topology(nodes, packets);
    // Untimed warm-up run: the first run of a rung pays cold caches and
    // first-touch allocations (about 20% slower than the runs after it).
    (void)node::RunNetworkSimulation(options);
    for (std::size_t r = 0; r < repeat; ++r) {
      const auto t0 = Clock::now();
      const auto result = node::RunNetworkSimulation(options);
      const auto t1 = Clock::now();
      const double elapsed = Seconds(t0, t1);
      if (elapsed < rung.seconds) {
        rung.seconds = elapsed;
        rung.events = result.events_executed;
      }
    }
    rung.events_per_sec = static_cast<double>(rung.events) / rung.seconds;
    std::printf("  nodes=%5d  %12.0f events/sec\n", nodes,
                rung.events_per_sec);
    ladder.push_back(rung);
  }
  const double seq_normalized = ladder.back().events_per_sec / calib_mops;
  std::printf("  calib        %10.1f Mops/s\n", calib_mops);
  std::printf("  normalized (largest rung) %10.2f events/sec per "
              "calib Mop\n",
              seq_normalized);

  if (!out_path.empty()) {
    WriteJson(out_path, ladder, packets, host_cores, calib_mops,
              seq_normalized);
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (!check_path.empty()) {
    std::ifstream in(check_path);
    if (!in) {
      std::fprintf(stderr, "perf_network: cannot read %s\n",
                   check_path.c_str());
      return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const double committed =
        JsonNumber(ss.str(), "seq_events_per_sec_per_calib_mop");
    if (committed <= 0.0) {
      std::fprintf(stderr, "perf_network: no baseline metric in %s\n",
                   check_path.c_str());
      return 2;
    }
    const double floor = committed * (1.0 - tolerance);
    std::printf("check: normalized %.2f vs committed %.2f (floor %.2f)\n",
                seq_normalized, committed, floor);
    if (seq_normalized < floor) {
      std::fprintf(stderr,
                   "perf_network: REGRESSION — normalized sequential "
                   "throughput %.2f is below %.2f (committed %.2f - %g%%)\n",
                   seq_normalized, floor, committed, tolerance * 100);
      return 1;
    }
    std::printf("check: OK\n");
  }
  return 0;
}
