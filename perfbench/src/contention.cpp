// Workload `contention`: co-located CSMA senders on one shared medium at a
// 25 ms packet interval, on a ladder from light to saturating contention.
// Every rung simulates about the same packet total, so rung wall times
// compare directly. This is the only path where channel::Medium is active
// and the MAC runs its event chain; it touches no disk and no cache. It uses
// the sequential kernel only (sim_threads 1).
//
// A batch runs every rung several times over the shared pool, each job one
// experiment::RunContentionSweep call; the benchmark times each call. The
// traced pass repeats the batch under spans and then calls
// node::RunNetworkSimulation for each job directly.
#include <array>
#include <thread>

#include "bench.h"
#include "experiment/contention.h"
#include "experiment/sweep.h"
#include "node/network_simulation.h"
#include "util/thread_pool.h"

namespace wsnbench {

namespace {

namespace ex = wsnlink::experiment;

constexpr std::array<int, 3> kRungs = {16, 128, 1024};

struct Job {
  ex::ContentionOptions options;
  int nodes = 0;
};

std::vector<Job> MakeJobs(const RunConfig& config) {
  auto rng = InputRng(config.seed, 2);
  // Packet total per rung; 1024 is the least that gives every node of the
  // largest rung a packet.
  const int total = config.tiny ? 1024 : 8192;
  // Jobs per rung: fixed, so the inputs do not depend on the pool width.
  constexpr int kPerRung = 4;
  std::vector<Job> jobs;
  for (int r = 0; r < kPerRung; ++r) {
    for (const int nodes : kRungs) {
      Job job;
      job.nodes = nodes;
      ex::ContentionOptions& o = job.options;
      o.config.pkt_interval_ms = 25.0;
      o.node_counts = {nodes};
      o.packet_count = total / nodes;
      o.base_seed = rng();
      o.threads = 1;
      o.sim_threads = 1;
      jobs.push_back(job);
    }
  }
  return jobs;
}

/// The network a one-rung ladder runs (mirrors RunContentionSweep).
wsnlink::node::NetworkOptions NetworkFor(const ex::ContentionOptions& o) {
  wsnlink::node::NetworkOptions network;
  network.base.config = o.config;
  network.base.mac = o.mac;
  network.base.lpl_wakeup_interval_ms = o.lpl_wakeup_interval_ms;
  network.base.seed = ex::SweepSeed(o.base_seed, 0);
  network.base.packet_count = o.packet_count;
  network.base.disable_interference = o.disable_interference;
  network.base.interferer_duty_cycle = o.interferer_duty_cycle;
  network.shared_medium = o.shared_medium;
  network.capture_margin_db = o.capture_margin_db;
  network.sim_threads = o.sim_threads;
  for (int n = 0; n < o.node_counts[0]; ++n) {
    wsnlink::node::NodeSpec spec;
    spec.config = o.config;
    spec.config.distance_m = o.config.distance_m + n * o.node_spacing_m;
    network.nodes.push_back(spec);
  }
  return network;
}

/// One batch's outcome. Only rows and packet counts are kept, not the
/// per-node results, so memory stays flat over a run.
struct Batch {
  std::vector<std::string> rows;
  std::vector<std::uint64_t> generated;
  std::vector<double> job_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Batch RunBatch(const std::vector<Job>& jobs, unsigned threads) {
  Batch batch;
  batch.rows.resize(jobs.size());
  batch.job_ms.resize(jobs.size());
  batch.generated.resize(jobs.size());
  const double c0 = ProcessCpuSeconds();
  const auto t0 = Clock::now();
  {
    const ScopedSpan pool_span("ThreadPool::ParallelFor", "util");
    const std::uint64_t parent = pool_span.Id();
    wsnlink::util::ThreadPool::Shared().ParallelFor(
        jobs.size(), 1, threads, [&](std::size_t i) {
          const auto a = Clock::now();
          std::vector<ex::ContentionPoint> points;
          {
            const ScopedSpan span("RunContentionSweep", "experiment", i, parent);
            points = ex::RunContentionSweep(jobs[i].options);
          }
          batch.job_ms[i] = Millis(a, Clock::now());
          batch.rows[i] = ex::SerializeContentionRow(points.at(0));
          batch.generated[i] = points.at(0).result.generated;
        });
  }
  batch.wall_s = Seconds(t0, Clock::now());
  batch.cpu_s = ProcessCpuSeconds() - c0;
  return batch;
}

}  // namespace

Report RunContentionWorkload(const RunConfig& config) {
  Report report;
  (void)wsnlink::util::ThreadPool::Shared();

  // Set-up: the job list plus one small warm-up call per rung (one packet
  // per node), which lets allocations and page faults of the largest
  // topology settle before timing. The warm-up seed is fixed so that every
  // run sets up the same work. Done several times; the median counts.
  std::vector<double> setups;
  std::vector<Job> jobs;
  for (int i = 0; i < 15; ++i) {
    const auto t0 = Clock::now();
    jobs = MakeJobs(config);
    for (std::size_t r = 0; r < kRungs.size(); ++r) {
      ex::ContentionOptions warm = jobs[r].options;
      warm.packet_count = 1;
      warm.base_seed = 1;
      (void)ex::RunContentionSweep(warm);
    }
    setups.push_back(Seconds(t0, Clock::now()));
    std::this_thread::sleep_for(kSetupGap);
  }
  report.Set("setup_s", Median(setups), "s");

  std::vector<Batch> batches;
  double wall = 0.0;
  double cpu = 0.0;
  std::map<int, std::vector<double>> rung_ms;
  do {
    batches.push_back(RunBatch(jobs, config.threads));
    wall += batches.back().wall_s;
    cpu += batches.back().cpu_s;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      rung_ms[jobs[i].nodes].push_back(batches.back().job_ms[i]);
    }
  } while (wall < config.seconds);

  // The median batch, so one batch slowed by the host does not move it.
  std::vector<double> batch_rates;
  for (const Batch& batch : batches) {
    std::uint64_t packets = 0;
    for (const std::uint64_t generated : batch.generated) packets += generated;
    batch_rates.push_back(static_cast<double>(packets) / batch.wall_s);
  }
  report.attempted = jobs.size() * batches.size();
  report.Set("ops_per_s", Median(batch_rates), "1/s");
  // Latency of the ladder: one call per rung, each at its rung's median (or
  // p99), summed, so every rung moves it by its own share.
  double ladder_p50_ms = 0.0;
  double ladder_p99_ms = 0.0;
  for (const int nodes : kRungs) {
    ladder_p50_ms += Percentile(rung_ms[nodes], 0.50);
    ladder_p99_ms += Percentile(rung_ms[nodes], 0.99);
  }
  report.Set("latency_p50_ms", ladder_p50_ms, "ms");
  report.Set("experiment.rung_p99_ms", ladder_p99_ms, "ms");
  report.notes["contention.batches"] = std::to_string(batches.size());

  // Output checks: every rung generates nodes x packets and every repeat of
  // a job serializes to the same row.
  const Batch& first = batches.front();
  std::string all_rows;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& o = jobs[i].options;
    const std::uint64_t want =
        static_cast<std::uint64_t>(jobs[i].nodes) * o.packet_count;
    for (const Batch& batch : batches) {
      const bool ok = batch.generated[i] == want &&
                      batch.rows[i] == first.rows[i];
      report.Check(ok, "rung " + std::to_string(jobs[i].nodes) +
                           " row differs or generated != nodes x packets");
      if (!ok) ++report.failed;
    }
    all_rows += first.rows[i] + '\n';
  }
  report.notes["contention.rows_digest"] = Digest(all_rows);

  if (!config.trace) return report;

  // ---- traced pass ---------------------------------------------------------
  SpanLog& log = SpanLog::Get();
  log.Enable(true);
  const std::int64_t begin_ns = log.Now();
  const Batch traced = RunBatch(jobs, config.threads);
  std::vector<wsnlink::node::NetworkResult> direct(jobs.size());
  const auto run_direct = [&] {
    const ScopedSpan pool_span("ThreadPool::ParallelFor", "util");
    const std::uint64_t parent = pool_span.Id();
    wsnlink::util::ThreadPool::Shared().ParallelFor(
        jobs.size(), 1, config.threads, [&](std::size_t i) {
          const auto network = NetworkFor(jobs[i].options);
          const ScopedSpan span("RunNetworkSimulation", "node", i, parent);
          direct[i] = wsnlink::node::RunNetworkSimulation(network);
        });
  };
  run_direct();
  const std::int64_t end_ns = log.Now();
  log.Enable(false);

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ex::ContentionPoint point;
    point.nodes = jobs[i].nodes;
    point.seed = ex::SweepSeed(jobs[i].options.base_seed, 0);
    point.result = direct[i];
    report.Check(traced.rows[i] == first.rows[i] &&
                     ex::SerializeContentionRow(point) == first.rows[i],
                 "rung " + std::to_string(jobs[i].nodes) +
                     " row differs between untraced and traced runs");
  }

  const std::vector<Span> spans = log.Snapshot();
  const SpanSummary summary = Summarize(spans, begin_ns, end_ns);
  SetSpanSummary(report, summary);
  if (!config.trace_path.empty()) log.WriteChrome(config.trace_path);

  report.Set("util.pool.busy_frac",
             cpu / (wall * static_cast<double>(config.threads)), "ratio");

  // Per-rung time and time per event, from the direct calls' spans.
  std::map<int, std::vector<double>> rung_s;
  std::map<int, std::pair<double, std::uint64_t>> rung_ns_events;
  for (const Span& s : spans) {
    if (std::string_view(s.name) != "RunNetworkSimulation") continue;
    const int nodes = jobs[s.item].nodes;
    const double ns = static_cast<double>(s.end_ns - s.start_ns);
    rung_s[nodes].push_back(ns * 1e-9);
    rung_ns_events[nodes].first += ns;
    rung_ns_events[nodes].second += direct[s.item].events_executed;
  }
  for (const int nodes : kRungs) {
    const std::string suffix = std::to_string(nodes);
    report.Set("node.network_run_s." + suffix, Median(rung_s[nodes]), "s");
    const auto [ns, events] = rung_ns_events[nodes];
    report.Set("sim.ns_per_event." + suffix,
               events ? ns / static_cast<double>(events) : 0.0, "ns");
  }

  wsnlink::channel::MediumStats medium;
  std::map<std::string, std::uint64_t> counts;
  for (const auto& result : direct) {
    medium.frames += result.medium.frames;
    medium.collisions += result.medium.collisions;
    medium.captures += result.medium.captures;
    Accumulate(counts, result.aggregate_counters);
  }
  report.Set("channel.medium.frames", static_cast<double>(medium.frames),
             "count");
  report.Set("channel.medium.collision_ratio",
             medium.frames ? static_cast<double>(medium.collisions) /
                                 static_cast<double>(medium.frames)
                           : 0.0,
             "ratio");
  report.Set("channel.medium.capture_ratio",
             medium.collisions ? static_cast<double>(medium.captures) /
                                     static_cast<double>(medium.collisions)
                               : 0.0,
             "ratio");
  SetCountRatios(report, counts);
  // The direct calls, timed with spans off and on. Run last: the per-rung
  // figures above are read from `direct`, which this overwrites (with equal
  // results).
  report.Set("trace.overhead_share", TracingOverhead(run_direct, 5), "ratio");
  SetNotApplicable(
      report,
      {{"node.link_run_us.p50", "us"}, {"node.link_run_us.p99", "us"},
       {"sim.ns_per_event.campaign", "ns"}, {"metrics.compute_us", "us"},
       {"core.opt.solve_ms", "ms"}, {"core.opt.space_size", "count"},
       {"experiment.sweep_share", "ratio"},
       {"experiment.checkpoint_write_ms", "ms"},
       {"experiment.checkpoint_read_ms", "ms"},
       {"experiment.write_bytes_per_config", "B"},
       {"experiment.summary_row_us", "us"},
       {"experiment.config_p99_ms", "ms"},
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
