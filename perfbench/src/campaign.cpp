// Workload `campaign`: the paper's dataset regeneration (Sec. II-C) as the
// shipped batch job runs it — experiment::RunCampaign over a strided Table I
// subset with the summary CSV and a checkpoint at the default cadence.
//
// Untraced, the benchmark times whole RunCampaign calls and derives each
// config's service time from the progress callback (the gap between two
// completions on one worker, which includes any checkpoint write or lock
// wait that worker did). Traced, it additionally calls the public functions
// the campaign is made of — RunSweep, RunLinkSimulation, ComputeMetrics,
// SerializeSummaryRow, Write/ReadCheckpoint — under spans, on the same
// configs.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "core/opt/config_space.h"
#include "experiment/campaign.h"
#include "experiment/checkpoint.h"
#include "experiment/dataset.h"
#include "experiment/sweep.h"
#include "metrics/link_metrics.h"
#include "node/link_simulation.h"
#include "util/csv.h"
#include "util/thread_pool.h"

namespace wsnbench {

namespace {

namespace ex = wsnlink::experiment;

constexpr int kPackets = 120;

struct CampaignInput {
  ex::CampaignOptions options;
  std::vector<wsnlink::core::StackConfig> configs;
};

/// The seed picks the base seed and the enumeration order of every Table I
/// knob, so the stride selects a different subset in a different order.
CampaignInput MakeInput(const RunConfig& config) {
  auto rng = InputRng(config.seed, 1);
  CampaignInput input;
  ex::CampaignOptions& o = input.options;
  auto& space = o.space;
  Shuffle(space.distances_m, rng);
  Shuffle(space.pa_levels, rng);
  Shuffle(space.max_tries, rng);
  Shuffle(space.retry_delays_ms, rng);
  Shuffle(space.queue_capacities, rng);
  Shuffle(space.pkt_intervals_ms, rng);
  Shuffle(space.payload_bytes, rng);
  o.packet_count = kPackets;
  o.stride = config.tiny ? 97 : 2;
  o.base_seed = rng();
  o.threads = config.threads;
  o.summary_csv_path = config.work_dir + "/summary.csv";
  o.checkpoint_path = config.work_dir + "/campaign.ckpt";
  // The steps RunCampaign itself takes before its first config.
  space.Validate();
  const std::size_t size = space.Size();
  for (std::size_t i = 0; i < size; i += o.stride) {
    input.configs.push_back(space.At(i));
  }
  return input;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string CsvHeaderLine() {
  const auto headers = ex::SummaryCsvHeaders();
  std::string line;
  for (std::size_t i = 0; i < headers.size(); ++i) {
    if (i) line += ',';
    line += wsnlink::util::EscapeCsvCell(headers[i]);
  }
  return line + '\n';
}

/// Per-config service times from the campaign's progress callback.
class CompletionGaps {
 public:
  void Start() {
    const std::lock_guard<std::mutex> lock(mutex_);
    start_ = Clock::now();
    last_.clear();
  }
  void Done() {
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    auto [it, fresh] = last_.try_emplace(std::this_thread::get_id(), start_);
    gaps_ms_.push_back(Millis(it->second, now));
    it->second = now;
  }
  [[nodiscard]] std::vector<double> Take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(gaps_ms_, {});
  }

 private:
  std::mutex mutex_;
  Clock::time_point start_;
  std::unordered_map<std::thread::id, Clock::time_point> last_;
  std::vector<double> gaps_ms_;
};

struct CallResult {
  ex::CampaignResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t written = 0;
  std::string csv_digest;
};

CallResult TimedCampaign(const ex::CampaignOptions& options) {
  std::filesystem::remove(options.checkpoint_path);
  std::filesystem::remove(options.summary_csv_path);
  CallResult call;
  const std::uint64_t w0 = WrittenBytes();
  const double c0 = ProcessCpuSeconds();
  const auto t0 = Clock::now();
  {
    const ScopedSpan span("RunCampaign", "experiment");
    call.result = ex::RunCampaign(options);
  }
  const auto t1 = Clock::now();
  call.cpu_s = ProcessCpuSeconds() - c0;
  call.written = WrittenBytes() - w0;
  call.wall_s = Seconds(t0, t1);
  call.csv_digest = Digest(ReadFile(options.summary_csv_path));
  // The CSV digest stands for the points; keeping them would make peak
  // memory grow with the number of calls.
  call.result.points = {};
  return call;
}

void CheckCall(Report& report, const CallResult& call,
               const std::string& reference_digest, std::size_t configs) {
  const ex::CampaignResult& r = call.result;
  report.Check(r.complete && r.configurations == configs,
               "campaign did not complete every config");
  report.Check(r.configs_failed == 0, "campaign reported failed configs");
  report.Check(r.checkpoint_write_error.empty(),
               "checkpoint write failed: " + r.checkpoint_write_error);
  report.Check(call.csv_digest == reference_digest,
               "summary CSV digest " + call.csv_digest +
                   " != RunSweep reference " + reference_digest);
}

}  // namespace

Report RunCampaignWorkload(const RunConfig& config) {
  Report report;
  (void)wsnlink::util::ThreadPool::Shared();

  // Set-up: deriving the inputs, done several times so the reported figure
  // is a median. It is the program's own campaign set-up (Table I
  // validation and enumeration through ConfigSpace::At, as RunCampaign does
  // before its first config) plus the knob shuffles.
  std::vector<double> setups;
  CampaignInput input;
  for (int i = 0; i < 25; ++i) {
    const auto t0 = Clock::now();
    input = MakeInput(config);
    setups.push_back(Seconds(t0, Clock::now()));
    std::this_thread::sleep_for(kSetupGap);
  }
  report.Set("setup_s", Median(setups), "s");
  const std::size_t n = input.configs.size();

  CompletionGaps gaps;
  input.options.progress = [&gaps](std::size_t, std::size_t) { gaps.Done(); };

  // Timed phase: whole campaigns until the time budget is spent.
  std::vector<CallResult> calls;
  double wall = 0.0;
  double cpu = 0.0;
  do {
    gaps.Start();
    calls.push_back(TimedCampaign(input.options));
    wall += calls.back().wall_s;
    cpu += calls.back().cpu_s;
  } while (wall < config.seconds);
  const std::vector<double> service_ms = gaps.Take();

  report.attempted = n * calls.size();
  for (const CallResult& call : calls) report.failed += call.result.configs_failed;
  // The median call, so one call slowed by the host does not move it.
  std::vector<double> call_rates;
  for (const CallResult& call : calls) {
    call_rates.push_back(static_cast<double>(n) / call.wall_s);
  }
  report.Set("ops_per_s", Median(call_rates), "1/s");
  report.Set("latency_p50_ms", Percentile(service_ms, 0.50), "ms");
  report.Set("experiment.config_p99_ms", Percentile(service_ms, 0.99), "ms");
  report.notes["campaign.configs_per_call"] = std::to_string(n);
  report.notes["campaign.calls"] = std::to_string(calls.size());

  // Output checks. The reference is the same configs through RunSweep and
  // SerializeSummaryRow at pool width 1.
  ex::SweepOptions sweep;
  sweep.base_seed = input.options.base_seed;
  sweep.packet_count = input.options.packet_count;
  sweep.threads = 1;
  const std::vector<ex::SweepPoint> reference = ex::RunSweep(input.configs, sweep);
  std::vector<std::string> reference_rows;
  std::string reference_csv = CsvHeaderLine();
  for (const ex::SweepPoint& point : reference) {
    reference_rows.push_back(ex::SerializeSummaryRow(point));
    reference_csv += reference_rows.back() + '\n';
  }
  const std::string reference_digest = Digest(reference_csv);
  report.notes["campaign.reference_digest"] = reference_digest;
  // The CSV RunCampaign wrote (every call is checked against the reference).
  report.notes["campaign.csv_digest"] = calls.front().csv_digest;
  for (const CallResult& call : calls) {
    CheckCall(report, call, reference_digest, n);
  }
  const ex::Checkpoint final_checkpoint =
      ex::ReadCheckpoint(input.options.checkpoint_path);
  bool rows_ok = final_checkpoint.rows.size() == n;
  for (std::size_t i = 0; rows_ok && i < n; ++i) {
    const ex::CheckpointRow& row = final_checkpoint.rows[i];
    rows_ok = row.index == i && !row.failed &&
              row.csv_row == reference_rows[i];
  }
  report.Check(rows_ok, "final checkpoint does not round-trip every row");

  if (!config.trace) return report;

  // ---- traced pass ---------------------------------------------------------
  SpanLog& log = SpanLog::Get();
  log.Enable(true);
  const std::int64_t begin_ns = log.Now();

  gaps.Start();
  const CallResult traced = TimedCampaign(input.options);
  (void)gaps.Take();
  CheckCall(report, traced, reference_digest, n);

  double sweep_s = 0.0;
  {
    ex::SweepOptions full = sweep;
    full.threads = config.threads;
    const auto t0 = Clock::now();
    const ScopedSpan span("RunSweep", "experiment");
    (void)ex::RunSweep(input.configs, full);
    sweep_s = Seconds(t0, Clock::now());
  }

  // The campaign's per-config work, one public call at a time.
  std::vector<std::string> rows(n);
  std::vector<std::uint64_t> events(n);
  std::vector<std::map<std::string, std::uint64_t>> counts(n);
  const auto decompose = [&] {
    const ScopedSpan pool_span("ThreadPool::ParallelFor", "util");
    const std::uint64_t parent = pool_span.Id();
    wsnlink::util::ThreadPool::Shared().ParallelFor(
        n, 16, config.threads, [&](std::size_t i) {
          const ScopedSpan item_span("config", "experiment", i, parent);
          wsnlink::node::SimulationOptions sim;
          sim.config = input.configs[i];
          sim.seed = ex::SweepSeed(input.options.base_seed, i);
          sim.packet_count = input.options.packet_count;
          ex::SweepPoint point;
          point.config = input.configs[i];
          wsnlink::node::SimulationResult result;
          {
            const ScopedSpan span("RunLinkSimulation", "node", i);
            result = wsnlink::node::RunLinkSimulation(sim);
          }
          {
            const ScopedSpan span("ComputeMetrics", "metrics", i);
            point.measured = wsnlink::metrics::ComputeMetrics(
                result, input.configs[i].pkt_interval_ms);
          }
          point.mean_snr_db = result.mean_snr_db;
          events[i] = result.events_executed;
          counts[i].clear();
          Accumulate(counts[i], result.counters);
          {
            const ScopedSpan span("SerializeSummaryRow", "experiment", i);
            rows[i] = ex::SerializeSummaryRow(point);
          }
        });
  };
  decompose();
  report.Check(rows == reference_rows,
               "per-call decomposition rows differ from RunSweep rows");

  const std::string ckpt_path = config.work_dir + "/traced.ckpt";
  double write_ms = 0.0;
  double read_ms = 0.0;
  {
    const auto t0 = Clock::now();
    const ScopedSpan span("WriteCheckpoint", "experiment");
    ex::WriteCheckpoint(ckpt_path, final_checkpoint);
    write_ms = Millis(t0, Clock::now());
  }
  {
    const auto t0 = Clock::now();
    const ScopedSpan span("ReadCheckpoint", "experiment");
    const ex::Checkpoint back = ex::ReadCheckpoint(ckpt_path);
    read_ms = Millis(t0, Clock::now());
    report.Check(back.rows.size() == n, "traced checkpoint lost rows");
  }
  const std::int64_t end_ns = log.Now();
  log.Enable(false);

  const std::vector<Span> spans = log.Snapshot();
  const SpanSummary summary = Summarize(spans, begin_ns, end_ns);
  SetSpanSummary(report, summary);
  if (!config.trace_path.empty()) log.WriteChrome(config.trace_path);
  // The decomposition holds the densest spans (five per config).
  report.Set("trace.overhead_share", TracingOverhead(decompose, 3), "ratio");

  const auto& d = summary.durations_us_by_name;
  report.Set("util.pool.busy_frac",
             cpu / (wall * static_cast<double>(config.threads)), "ratio");
  report.Set("node.link_run_us.p50", Percentile(d.at("RunLinkSimulation"), 0.5),
             "us");
  report.Set("node.link_run_us.p99",
             Percentile(d.at("RunLinkSimulation"), 0.99), "us");
  double node_us = 0.0;
  for (const double us : d.at("RunLinkSimulation")) node_us += us;
  std::uint64_t total_events = 0;
  std::map<std::string, std::uint64_t> total_counts;
  for (std::size_t i = 0; i < n; ++i) {
    total_events += events[i];
    for (const auto& [name, value] : counts[i]) total_counts[name] += value;
  }
  report.Set("sim.ns_per_event.campaign",
             node_us * 1e3 / static_cast<double>(total_events), "ns");
  report.Set("metrics.compute_us", Percentile(d.at("ComputeMetrics"), 0.5), "us");
  report.Set("experiment.summary_row_us",
             Percentile(d.at("SerializeSummaryRow"), 0.5), "us");
  report.Set("experiment.sweep_share", sweep_s / traced.wall_s, "ratio");
  report.Set("experiment.checkpoint_write_ms", write_ms, "ms");
  report.Set("experiment.checkpoint_read_ms", read_ms, "ms");
  report.Set("experiment.write_bytes_per_config",
             static_cast<double>(traced.written) / static_cast<double>(n), "B");

  // Exact counts come from the campaign's own roll-up; the per-call
  // decomposition must reproduce them.
  std::map<std::string, std::uint64_t> campaign_counts;
  Accumulate(campaign_counts, traced.result.counters);
  bool counts_ok = true;
  for (const auto& [name, value] : total_counts) {
    counts_ok = counts_ok && campaign_counts[name] == value;
  }
  report.Check(counts_ok, "decomposed counters differ from the campaign roll-up");
  SetCountRatios(report, campaign_counts);
  SetNotApplicable(
      report,
      {{"node.network_run_s.16", "s"}, {"node.network_run_s.128", "s"},
       {"node.network_run_s.1024", "s"}, {"sim.ns_per_event.16", "ns"},
       {"sim.ns_per_event.128", "ns"}, {"sim.ns_per_event.1024", "ns"},
       // Single-link runs use a private air: the shared medium is idle.
       {"channel.medium.frames", "count"},
       {"channel.medium.collision_ratio", "ratio"},
       {"channel.medium.capture_ratio", "ratio"},
       {"core.opt.solve_ms", "ms"}, {"core.opt.space_size", "count"},
       {"experiment.rung_p99_ms", "ms"},
       {"serve.protocol.parse_us", "us"}, {"serve.cache.lookup_us", "us"},
       {"serve.transport_us", "us"}, {"serve.cache.persist_ms", "ms"},
       {"serve.write_bytes_per_miss", "B"}, {"serve.answer_hit_us", "us"},
       {"serve.answer_miss_ms", "ms"}, {"serve.cache.hit_ratio", "ratio"},
       {"serve.busy_rejected", "count"}, {"serve.hit_p50_ms", "ms"},
       {"serve.hit_p99_ms", "ms"}, {"serve.miss_p99_ms", "ms"},
       {"serve.max_rate_rps", "1/s"}, {"serve.gen_late_p99_ms", "ms"},
       {"serve.one_conn.p99_ms", "ms"}});
  return report;
}

}  // namespace wsnbench
