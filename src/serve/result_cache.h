// Content-addressed, persistent result store for the tuning service.
//
// Every answer wsnlinkd produces is a pure function of its canonical
// request key (config, channel spec, seed contract, code-version tag — see
// protocol.h CanonicalKey), so results are perfectly cacheable: fleet-scale
// repeat traffic degenerates to lookups, and a restarted daemon warms from
// disk instead of recomputing months of answers.
//
// Addressing: the entry address is the FNV-1a 64-bit hash of the canonical
// key (experiment::CheckpointChecksum — the same hash the checkpoint format
// uses). The full key string is stored alongside and is what lookups
// compare, so even a hash collision can only cause a miss, never a wrong
// answer.
//
// Persistence reuses the campaign checkpoint line format (line-based
// text, LF endings, FNV-1a-64 checksum lines) and its writers in
// experiment/checkpoint.h, so the cache shares the "checkpoint.write"
// fault-injection site and the torn-write drills apply unchanged. The
// file is an append-only journal: a header, then one or more commits.
//
//   wsnlink-servecache 2
//   version_tag <tag>
//   entries <k>                                               (commit 1)
//   entry <key-fnv1a-hex16> <payload-fnv1a-hex16> <key> <payload>
//   ...                                      (k entry lines, sorted by key)
//   end <fnv1a64-hex of every preceding byte of the file>
//   entries <k2> ... end <...>                           (commit 2, ...)
//
// A one-commit file is exactly what Save writes; version 1 files (the
// pre-journal format) are read as one-commit files. Because each end line
// hashes every byte before it, earlier end lines included, the final end
// line alone authenticates the whole file and the unchanged
// experiment::VerifyChecksummedBody verifies a journal of any length.
//
// Writing: Save compacts — all entries as one commit, published atomically
// by tmp + rename. Persist appends one commit holding only the entries
// stored since the last persist, provided the file at the path is the
// journal this cache last wrote or strictly loaded (same path, same
// committed length). Anything else compacts instead: no file yet, a
// salvaged, invalidated, version-1 or cap-trimmed load, or any FIFO
// eviction since the journal was last in sync — so after an eviction the
// file again holds exactly the survivors. Without evictions the journal
// never holds a dead entry, so it needs no growth heuristic. An append
// hashes only the new bytes, continuing the running FNV-1a state. A failed
// append (real or injected) truncates the file back to its last committed
// length, leaving it byte-identical to before; the entries stay pending
// and the next persist retries them.
//
// Load is two-tier and hashes the file exactly once. A file whose final
// checksum verifies is parsed strictly, commit by commit; its per-entry
// checksums are already covered by that final one and are not re-hashed,
// and the running hash for later appends is seeded from the verified end
// line's stored checksum plus that line itself. A file that fails it (bit
// rot, a torn append) drops to per-entry salvage — every `entry` line
// whose own key hash and payload checksum verify is kept, damaged lines
// are counted and dropped. One flipped byte therefore costs exactly the damaged entry (a
// recompute), never the cache and never a corrupt answer; a torn final
// commit costs at most its damaged line, and the next persist compacts the
// salvaged set into a strictly verifying file. A version-tag mismatch
// discards the whole file (the invalidation rule: old answers may be
// wrong under new code).
//
// Bounding: an optional entry cap turns the cache into a FIFO — when a
// Store would exceed the cap, the oldest-inserted entries are evicted
// first. Eviction is deterministic (pure insertion order, never recency or
// wall clock: a duplicate Store does not refresh an entry's position), so
// two daemons fed the same request sequence hold the same entries. After a
// Load, insertion order is re-anchored to key order (the file's own entry
// order), which keeps load-time capping deterministic too. Because
// eviction only removes whole entries and Save serializes survivors in key
// order, a capped cache's file is byte-identical to an uncapped cache
// holding exactly the surviving set — warm-start byte identity survives
// the cap.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "experiment/checkpoint.h"

namespace wsnlink::serve {

inline constexpr int kCacheFormatVersion = 2;

/// Outcome of warming a cache from disk.
struct CacheLoadReport {
  /// Entries accepted into memory.
  std::size_t loaded = 0;
  /// `entry` lines dropped by salvage (bad hash/checksum/shape).
  std::size_t corrupt_dropped = 0;
  /// True when the file carried a different version tag and was discarded.
  bool invalidated = false;
  /// True when no file existed (a cold start, not an error).
  bool missing = false;
  /// True when the whole-file checksum failed and salvage mode ran.
  bool salvaged = false;
  /// Intact entries evicted at load time because the file held more than
  /// the cache's entry cap (kept: the last `max_entries` in key order).
  std::size_t cap_evicted = 0;
};

/// Thread-safe in-memory map + checkpoint-format persistence.
class ResultCache {
 public:
  /// `version_tag` is stamped into the file header and checked at Load.
  /// `max_entries` bounds the cache (0 = unbounded): once full, each new
  /// Store evicts the oldest-inserted entry (deterministic FIFO — see the
  /// file comment).
  explicit ResultCache(std::string version_tag, std::size_t max_entries = 0);

  /// Returns the payload stored under `key`, or empty if absent. (Payloads
  /// are never empty: an empty string unambiguously means miss.)
  [[nodiscard]] std::string Lookup(const std::string& key) const;

  /// Stores `payload` under `key` (first writer wins; a duplicate store of
  /// the same key is a no-op — answers are pure functions of the key, so
  /// both writers hold identical bytes). Rejects empty payloads and keys
  /// containing whitespace/control bytes (the file format is line-based).
  void Store(const std::string& key, const std::string& payload);

  [[nodiscard]] std::size_t Size() const;

  /// Entries evicted by the cap so far (Store-time and Load-time alike).
  [[nodiscard]] std::uint64_t Evictions() const;

  /// Compacts: serializes every entry (ordered by key: deterministic
  /// bytes) as one commit and atomically publishes it to `path` via the
  /// checkpoint writer. Throws experiment::CheckpointError on failure
  /// (injected or real); the previous file is left intact in that case.
  /// On success `path` becomes this cache's journal.
  void Save(const std::string& path);

  /// Persists every entry stored since the last Save/Persist/Load: appends
  /// them as one commit when `path` holds this cache's journal, and
  /// compacts through Save otherwise (see the file comment). Does nothing
  /// when the journal is already in sync. Throws
  /// experiment::CheckpointError on failure; a failed append leaves the
  /// file byte-identical to before and the entries pending.
  void Persist(const std::string& path);

  /// Warms the cache from `path`, replacing the in-memory contents. Never
  /// throws on corruption: damaged state degrades to fewer warm entries
  /// (see the report), because a cache can always be rebuilt by
  /// recomputing. Save, Persist and Load must not overlap one another;
  /// Lookup and Store may run concurrently with any of them.
  CacheLoadReport Load(const std::string& path);

 private:
  /// Writes the journal at `path`: appends the unsynced entries as one
  /// commit when `append` is set and `path` holds this cache's journal,
  /// compacts otherwise.
  void WriteJournal(const std::string& path, bool append);

  /// Drops oldest-inserted entries until the cap holds. Caller holds
  /// mutex_. Returns how many entries were evicted.
  std::size_t EvictOverCapLocked();

  std::string version_tag_;
  const std::size_t max_entries_;
  mutable std::mutex mutex_;
  std::map<std::string, std::string> entries_;
  /// Keys in insertion order, oldest first; rebuilt (in key order) by Load.
  /// Its last `unsynced_` keys are the entries the journal still lacks.
  std::deque<std::string> insertion_order_;
  /// Entries stored since the journal was last in sync.
  std::size_t unsynced_ = 0;
  /// The file this cache last wrote or strictly loaded, empty when none
  /// (the next Persist compacts), and that file's committed tail.
  std::string journal_path_;
  experiment::ChecksummedTail journal_tail_;
  // wsnstatic:transient(evictions_): process-lifetime telemetry, deliberately reset by a reload
  std::uint64_t evictions_ = 0;
};

}  // namespace wsnlink::serve
