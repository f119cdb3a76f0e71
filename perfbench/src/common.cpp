#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>

#include "bench.h"
#include "experiment/checkpoint.h"

namespace wsnbench {

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Millis(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t WrittenBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Digest(const std::string& bytes) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    wsnlink::experiment::CheckpointChecksum(bytes)));
  return buf;
}

wsnlink::util::Rng InputRng(std::uint64_t seed, std::uint64_t stream) {
  return wsnlink::util::Rng(seed).Derive(stream);
}

// --- spans -----------------------------------------------------------------

namespace {
thread_local std::uint64_t t_current_span = 0;
thread_local std::uint32_t t_thread_index = 0;
std::atomic<std::uint32_t> g_next_thread{1};

std::uint32_t ThreadIndex() {
  if (t_thread_index == 0) t_thread_index = g_next_thread.fetch_add(1);
  return t_thread_index;
}
}  // namespace

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

std::int64_t SpanLog::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::uint64_t SpanLog::NextId() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanLog::Add(const Span& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::uint64_t SpanLog::Current() { return t_current_span; }
void SpanLog::SetCurrent(std::uint64_t id) { t_current_span = id; }

std::vector<Span> SpanLog::Snapshot() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanLog::Clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

void SpanLog::WriteChrome(const std::string& path) {
  const std::vector<Span> spans = Snapshot();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"id\":%llu,\"parent\":%llu,\"item\":%llu}}",
                  i ? "," : "", s.name, s.layer,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.thread,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.item));
    out << buf;
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  if (!out) throw std::runtime_error("short write on trace " + path);
}

ScopedSpan::ScopedSpan(const char* name, const char* layer, std::uint64_t item,
                       std::uint64_t parent) {
  SpanLog& log = SpanLog::Get();
  if (!log.Enabled()) return;
  on_ = true;
  span_.name = name;
  span_.layer = layer;
  span_.item = item;
  span_.id = log.NextId();
  span_.parent = parent == ~0ULL ? SpanLog::Current() : parent;
  span_.thread = ThreadIndex();
  saved_current_ = SpanLog::Current();
  SpanLog::SetCurrent(span_.id);
  span_.start_ns = log.Now();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  SpanLog& log = SpanLog::Get();
  span_.end_ns = log.Now();
  SpanLog::SetCurrent(saved_current_);
  log.Add(span_);
}

namespace {
/// Total length of the union of `intervals`, each clipped to [lo, hi].
std::int64_t CoveredNs(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                       std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cursor = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b <= a) continue;
    covered += b - a;
    cursor = b;
  }
  return covered;
}
}  // namespace

SpanSummary Summarize(const std::vector<Span>& spans, std::int64_t begin_ns,
                      std::int64_t end_ns) {
  SpanSummary summary;
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  std::vector<std::pair<std::int64_t, std::int64_t>> roots;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    } else {
      roots.emplace_back(s.start_ns, s.end_ns);
    }
    summary.durations_us_by_name[s.name].push_back(
        static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  for (const Span& s : spans) {
    std::int64_t self = s.end_ns - s.start_ns;
    const auto it = children.find(s.id);
    if (it != children.end()) self -= CoveredNs(it->second, s.start_ns, s.end_ns);
    summary.self_ms_by_layer[s.layer] += static_cast<double>(self) / 1e6;
  }
  const std::int64_t wall = end_ns - begin_ns;
  if (wall > 0) {
    summary.uncovered_share =
        1.0 - static_cast<double>(CoveredNs(roots, begin_ns, end_ns)) /
                  static_cast<double>(wall);
  }
  return summary;
}

void SetSpanSummary(Report& report, const SpanSummary& summary) {
  for (const std::string& layer : SpanLayers()) {
    const auto it = summary.self_ms_by_layer.find(layer);
    report.Set("trace.self_ms." + layer,
               it == summary.self_ms_by_layer.end() ? 0.0 : it->second, "ms");
  }
  report.Set("trace.uncovered_share", summary.uncovered_share, "ratio");
}

double TracingOverhead(const std::function<void()>& section, int reps) {
  SpanLog& log = SpanLog::Get();
  std::vector<double> off_s;
  std::vector<double> on_s;
  for (int r = 0; r < reps; ++r) {
    for (const bool on : {false, true}) {
      log.Enable(on);
      const auto t0 = Clock::now();
      section();
      (on ? on_s : off_s).push_back(Seconds(t0, Clock::now()));
      log.Enable(false);
      log.Clear();
    }
  }
  return Median(on_s) / Median(off_s) - 1.0;
}

// --- counters ----------------------------------------------------------------

void Accumulate(std::map<std::string, std::uint64_t>& into,
                const std::vector<wsnlink::trace::CounterSample>& samples) {
  for (const auto& sample : samples) into[std::string(sample.name)] += sample.value;
}

namespace {
double Ratio(const std::map<std::string, std::uint64_t>& counts,
             const char* num, const char* den) {
  const auto n = counts.find(num);
  const auto d = counts.find(den);
  if (n == counts.end() || d == counts.end() || d->second == 0) return 0.0;
  return static_cast<double>(n->second) / static_cast<double>(d->second);
}
}  // namespace

void SetCountRatios(Report& report,
                    const std::map<std::string, std::uint64_t>& counts) {
  const char* packets = "app.packets_generated";
  report.Set("sim.events_per_packet",
             Ratio(counts, "sim.events_executed", packets), "count");
  report.Set("sim.cancel_ratio",
             Ratio(counts, "sim.events_cancelled", "sim.events_scheduled"),
             "ratio");
  report.Set("mac.tries_per_packet", Ratio(counts, "mac.tx_attempts", packets),
             "count");
  report.Set("mac.ack_ratio",
             Ratio(counts, "mac.acks_received", "mac.tx_attempts"), "ratio");
  report.Set("mac.cca_busy_per_attempt",
             Ratio(counts, "mac.cca_busy", "mac.tx_attempts"), "ratio");
  report.Set("link.queue_drop_ratio", Ratio(counts, "link.queue_drops", packets),
             "ratio");
  report.Set("phy.bytes_per_packet",
             Ratio(counts, "phy.bytes_radiated", packets), "B");
  report.Set("app.delivery_ratio", Ratio(counts, "app.rx_unique", packets),
             "ratio");
}

const std::vector<std::string>& SpanLayers() {
  static const std::vector<std::string> layers = {
      "util", "node", "metrics", "core", "experiment", "serve"};
  return layers;
}

void SetNotApplicable(
    Report& report,
    const std::vector<std::pair<const char*, const char*>>& names_and_units) {
  for (const auto& [name, unit] : names_and_units) report.Set(name, 0.0, unit);
}

}  // namespace wsnbench
