// The tuning-as-a-service query engine (transport-free).
//
// One QueryService owns the answer path end to end: parse a request line,
// look its canonical key up in the content-addressed ResultCache, compute
// on a miss (what_if runs the link simulator under the request's seed
// contract; optimize runs the Sec. VIII epsilon-constraint search over the
// serving config space), store, reply. Batches fan out over the process-
// wide work-stealing pool (util::ThreadPool::Shared()) — the same executor
// the sweep engine uses — with results landing in per-index slots, so a
// batch's response vector is a pure function of its request vector:
// bit-identical across thread counts and across cold/warm cache states
// (cached payloads are the verbatim bytes the cold computation produced).
//
// The TCP layer (server.h) is a thin framing shim over this class; tests,
// the bench harness and the in-process client mode all drive it directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/models/model_set.h"
#include "core/opt/config_space.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"

namespace wsnlink::serve {

struct ServiceOptions {
  /// Upper bound on concurrent computations in a batch; 0 = the shared
  /// pool's full width (same contract as SweepOptions::threads).
  unsigned threads = 0;
  /// Persistent cache path; empty = in-memory only.
  std::string cache_path;
  /// Persist after this many new cache entries (1 = every store). The
  /// cadence is store-count based, never timer based: the daemon contains
  /// no wall clock.
  std::size_t persist_every = 1;
  /// Cache/compatibility tag (see protocol.h kServeVersionTag). Override
  /// in tests to exercise the invalidation rule.
  std::string version_tag = std::string(kServeVersionTag);
  /// Entry cap for the result cache (0 = unbounded). When full, the
  /// oldest-inserted entry is evicted first — deterministic FIFO, so two
  /// daemons fed the same request sequence hold the same entries (see
  /// result_cache.h). Applies to warm starts too: a persisted file larger
  /// than the cap keeps the last `cache_max_entries` entries in key order.
  std::size_t cache_max_entries = 0;
};

/// Monotonic service counters (all advisory; the stats verb reports them).
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t computed_what_if = 0;
  std::uint64_t computed_optimize = 0;
  std::uint64_t persist_failures = 0;
  std::uint64_t busy_rejected = 0;
  /// Entries warmed from disk at construction.
  std::uint64_t warm_loaded = 0;
  /// Damaged persisted lines dropped at warm start.
  std::uint64_t corrupt_dropped = 0;
  /// Current in-memory cache size.
  std::uint64_t cache_entries = 0;
};

class QueryService {
 public:
  /// Warms the cache from options.cache_path when set (tolerating any
  /// corruption — see ResultCache::Load).
  explicit QueryService(ServiceOptions options);

  /// Flushes the cache on the way down (best effort).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Answers one request line. Total: every input yields exactly one
  /// single-line reply — an ok/infeasible/stats payload or a structured
  /// error. Never throws, never blocks on other requests' locks while
  /// computing. Thread-safe.
  [[nodiscard]] std::string Answer(const std::string& line);

  /// Answers a batch via the shared pool (at most options.threads active
  /// workers). results[i] is Answer(lines[i]); the vector is bit-identical
  /// for any thread count. Requests that share a canonical key compute at
  /// most once per batch: repeats get the first one's bytes and count as
  /// cache hits.
  [[nodiscard]] std::vector<std::string> AnswerBatch(
      const std::vector<std::string>& lines);

  /// Records `count` requests rejected before parsing (the server's
  /// max-inflight overflow path) so stats reflect them.
  void CountBusyRejected(std::uint64_t count);

  [[nodiscard]] ServiceStats Stats() const;

  /// Persists the cache now if a path is configured: appends the entries
  /// stored since the last persist to the cache journal, or compacts it
  /// (ResultCache::Persist). Returns false (and counts a persist failure)
  /// when the write fails; the daemon keeps serving from memory.
  bool Flush();

  [[nodiscard]] const ServiceOptions& Options() const noexcept {
    return options_;
  }

 private:
  [[nodiscard]] std::string ComputeWhatIf(const Request& request) const;
  [[nodiscard]] std::string ComputeOptimize(const Request& request) const;
  [[nodiscard]] std::string StatsResponse() const;
  /// Parses and counts `line`. Returns its canonical cache key, or an
  /// empty key with `*reply` set for a line the cache does not answer (a
  /// parse error or the stats verb).
  [[nodiscard]] std::string Admit(const std::string& line, Request* request,
                                  std::string* reply);
  /// Answers an admitted request: lookup, compute on a miss, store.
  [[nodiscard]] std::string Resolve(const Request& request,
                                    const std::string& key);
  void StoreAndMaybePersist(const std::string& key,
                            const std::string& payload);

  ServiceOptions options_;
  core::models::ModelSet models_;
  ResultCache cache_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> parse_errors_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> computed_what_if_{0};
  std::atomic<std::uint64_t> computed_optimize_{0};
  std::atomic<std::uint64_t> persist_failures_{0};
  std::atomic<std::uint64_t> busy_rejected_{0};
  std::uint64_t warm_loaded_ = 0;
  std::uint64_t corrupt_dropped_ = 0;

  /// Serializes cache persists and the stores-since-persist counter.
  std::mutex persist_mutex_;
  std::size_t stores_since_persist_ = 0;
};

/// The serving configuration space for an optimize request: the paper's
/// Table I knob sets restricted to the request's fixed givens (distance,
/// traffic). Exposed so tests and docs state the exact search space.
[[nodiscard]] core::opt::ConfigSpace ServingSpace(double distance_m,
                                                  double pkt_interval_ms);

}  // namespace wsnlink::serve
