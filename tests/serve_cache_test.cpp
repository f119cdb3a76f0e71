// Cache integrity drills for the tuning service's persistent result store.
//
// The contract under test (docs/SERVING.md):
//  * round trip: Save then Load restores every entry byte-exactly;
//  * damage containment: one flipped byte costs exactly the damaged entry
//    (a recompute), never the whole cache and never a corrupt answer;
//  * torn writes: the cache persists through the same instrumented
//    atomic writer as campaign checkpoints ("checkpoint.write" fault
//    site), so an injected failure leaves the previous file intact;
//  * invalidation: a version-tag mismatch discards the file wholesale;
//  * warm start: a restarted QueryService answers from disk with the
//    exact bytes the cold computation produced.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "experiment/checkpoint.h"
#include "serve/query_service.h"
#include "serve/result_cache.h"
#include "util/fault_injection.h"

namespace wsnlink {
namespace {

using serve::CacheLoadReport;
using serve::QueryService;
using serve::ResultCache;
using serve::ServiceOptions;

constexpr const char* kTag = "wsnlink-servecache-test-v1";

std::string TempPath(const char* name) {
  return testing::TempDir() + "/wsnlink_" + name + ".cache";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << contents;
}

// ResultCache owns a mutex (immovable), so helpers fill one in place.
void FillEntries(ResultCache& cache, int count) {
  for (int i = 0; i < count; ++i) {
    cache.Store("key|" + std::to_string(i),
                "{\"status\":\"ok\",\"value\":" + std::to_string(i * 10) +
                    "}");
  }
}

void SaveCacheWithEntries(int count, const std::string& path) {
  ResultCache cache(kTag);
  FillEntries(cache, count);
  cache.Save(path);
}

TEST(ServeCache, SaveLoadRoundTripIsExact) {
  const std::string path = TempPath("roundtrip");
  SaveCacheWithEntries(5, path);
  ResultCache loaded(kTag);
  const CacheLoadReport report = loaded.Load(path);
  EXPECT_EQ(report.loaded, 5u);
  EXPECT_EQ(report.corrupt_dropped, 0u);
  EXPECT_FALSE(report.salvaged);
  EXPECT_FALSE(report.invalidated);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(loaded.Lookup("key|" + std::to_string(i)),
              "{\"status\":\"ok\",\"value\":" + std::to_string(i * 10) + "}");
  }
  std::remove(path.c_str());
}

TEST(ServeCache, MissingFileIsColdStartNotError) {
  ResultCache cache(kTag);
  const CacheLoadReport report = cache.Load(TempPath("does_not_exist"));
  EXPECT_TRUE(report.missing);
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_EQ(cache.Size(), 0u);
}

TEST(ServeCache, SingleFlippedByteDropsOnlyTheDamagedEntry) {
  const std::string path = TempPath("byteflip");
  SaveCacheWithEntries(4, path);

  std::string contents = ReadFile(path);
  // Flip one byte inside entry 2's payload ("value\":20" -> "value\":2z").
  const std::size_t pos = contents.find("\"value\":20");
  ASSERT_NE(pos, std::string::npos);
  contents[pos + 9] = 'z';
  WriteFile(path, contents);

  ResultCache loaded(kTag);
  const CacheLoadReport report = loaded.Load(path);
  EXPECT_TRUE(report.salvaged);  // whole-file checksum no longer matches
  EXPECT_EQ(report.loaded, 3u);
  EXPECT_EQ(report.corrupt_dropped, 1u);

  // Undamaged entries answer; the damaged one is a miss (a recompute),
  // never a corrupt payload.
  EXPECT_EQ(loaded.Lookup("key|2"), "");
  EXPECT_EQ(loaded.Lookup("key|0"), "{\"status\":\"ok\",\"value\":0}");
  EXPECT_EQ(loaded.Lookup("key|3"), "{\"status\":\"ok\",\"value\":30}");
  std::remove(path.c_str());
}

TEST(ServeCache, TruncatedTailSalvagesVerifyingEntries) {
  const std::string path = TempPath("truncated");
  SaveCacheWithEntries(4, path);

  std::string contents = ReadFile(path);
  // Chop mid-way through the last entry line (simulates a torn append on
  // a filesystem without the atomic rename).
  contents.resize(contents.rfind("entry ") + 10);
  WriteFile(path, contents);

  ResultCache loaded(kTag);
  const CacheLoadReport report = loaded.Load(path);
  EXPECT_TRUE(report.salvaged);
  EXPECT_EQ(report.loaded, 3u);
  EXPECT_GE(report.corrupt_dropped, 1u);
  EXPECT_EQ(loaded.Lookup("key|0"), "{\"status\":\"ok\",\"value\":0}");
  std::remove(path.c_str());
}

TEST(ServeCache, VersionTagMismatchDiscardsWholeFile) {
  const std::string path = TempPath("invalidate");
  SaveCacheWithEntries(3, path);

  ResultCache newer("wsnlink-servecache-test-v2");
  const CacheLoadReport report = newer.Load(path);
  EXPECT_TRUE(report.invalidated);
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_EQ(newer.Size(), 0u);
  std::remove(path.c_str());
}

TEST(ServeCache, DamagedHeaderMeansColdStart) {
  const std::string path = TempPath("badheader");
  SaveCacheWithEntries(3, path);
  std::string contents = ReadFile(path);
  contents[0] = 'X';  // break the magic
  WriteFile(path, contents);

  ResultCache loaded(kTag);
  const CacheLoadReport report = loaded.Load(path);
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_EQ(loaded.Size(), 0u);
  std::remove(path.c_str());
}

TEST(ServeCache, TornWriteLeavesPreviousFileIntact) {
  const std::string path = TempPath("tornwrite");
  ResultCache cache(kTag);
  FillEntries(cache, 2);
  cache.Save(path);
  const std::string before = ReadFile(path);

  cache.Store("key|extra", "{\"status\":\"ok\",\"value\":999}");
  {
    // The cache persists through the checkpoint writer, so the campaign
    // torn-write drill applies verbatim: fail the very next write.
    util::ScopedFaultInjection injection;
    injection->FailNth("checkpoint.write", 0);
    EXPECT_THROW(cache.Save(path), experiment::CheckpointError);
  }

  // Atomic publish: the failed write never touched the live file, and the
  // tmp file was cleaned up.
  EXPECT_EQ(ReadFile(path), before);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // The next save (fault cleared) succeeds and includes the new entry.
  cache.Save(path);
  ResultCache loaded(kTag);
  EXPECT_EQ(loaded.Load(path).loaded, 3u);
  EXPECT_EQ(loaded.Lookup("key|extra"), "{\"status\":\"ok\",\"value\":999}");
  std::remove(path.c_str());
}

TEST(ServeCache, StoreRejectsUnrepresentableKeysAndPayloads) {
  ResultCache cache(kTag);
  EXPECT_THROW(cache.Store("", "x"), std::invalid_argument);
  EXPECT_THROW(cache.Store("has space", "x"), std::invalid_argument);
  EXPECT_THROW(cache.Store("key", ""), std::invalid_argument);
  EXPECT_THROW(cache.Store("key", "two\nlines"), std::invalid_argument);

  // First writer wins; a duplicate store is a no-op, not an overwrite.
  cache.Store("key", "first");
  cache.Store("key", "second");
  EXPECT_EQ(cache.Lookup("key"), "first");
}

// ---------------------------------------------------------------------------
// Entry cap / FIFO eviction
// ---------------------------------------------------------------------------

TEST(ServeCache, CapEvictsOldestInsertedFirst) {
  ResultCache cache(kTag, /*max_entries=*/3);
  FillEntries(cache, 5);  // stores key|0 .. key|4 in order
  EXPECT_EQ(cache.Size(), 3u);
  EXPECT_EQ(cache.Evictions(), 2u);
  // FIFO: the two oldest stores are gone, the three newest answer.
  EXPECT_EQ(cache.Lookup("key|0"), "");
  EXPECT_EQ(cache.Lookup("key|1"), "");
  EXPECT_EQ(cache.Lookup("key|2"), "{\"status\":\"ok\",\"value\":20}");
  EXPECT_EQ(cache.Lookup("key|4"), "{\"status\":\"ok\",\"value\":40}");
}

TEST(ServeCache, DuplicateStoreDoesNotRefreshFifoPosition) {
  ResultCache cache(kTag, /*max_entries=*/3);
  FillEntries(cache, 3);  // order: key|0, key|1, key|2
  // A duplicate store of the oldest key is a no-op — it must NOT move
  // key|0 to the back (eviction is insertion order, never recency).
  cache.Store("key|0", "different-bytes");
  cache.Store("key|fresh", "{\"status\":\"ok\",\"value\":999}");
  EXPECT_EQ(cache.Lookup("key|0"), "");  // still the eviction victim
  EXPECT_EQ(cache.Lookup("key|1"), "{\"status\":\"ok\",\"value\":10}");
  EXPECT_EQ(cache.Lookup("key|fresh"), "{\"status\":\"ok\",\"value\":999}");
}

TEST(ServeCache, CappedSaveIsByteIdenticalToUncappedSurvivorSet) {
  // Warm-start byte identity must survive the cap: a capped cache's file
  // is exactly the file an uncapped cache holding the surviving set would
  // write — eviction removes whole entries, never perturbs survivors.
  const std::string capped_path = TempPath("capped");
  const std::string survivors_path = TempPath("survivors");
  {
    ResultCache capped(kTag, /*max_entries=*/2);
    FillEntries(capped, 5);  // survivors: key|3, key|4
    capped.Save(capped_path);
  }
  {
    ResultCache uncapped(kTag);
    uncapped.Store("key|3", "{\"status\":\"ok\",\"value\":30}");
    uncapped.Store("key|4", "{\"status\":\"ok\",\"value\":40}");
    uncapped.Save(survivors_path);
  }
  EXPECT_EQ(ReadFile(capped_path), ReadFile(survivors_path));
  std::remove(capped_path.c_str());
  std::remove(survivors_path.c_str());
}

TEST(ServeCache, LoadAppliesCapDeterministically) {
  const std::string path = TempPath("loadcap");
  SaveCacheWithEntries(5, path);  // key|0 .. key|4, serialized in key order

  ResultCache capped(kTag, /*max_entries=*/2);
  const CacheLoadReport report = capped.Load(path);
  // The cap keeps the last max_entries in key order — the file's own
  // deterministic entry order — and reports the intact-but-evicted rest.
  EXPECT_EQ(report.loaded, 2u);
  EXPECT_EQ(report.cap_evicted, 3u);
  EXPECT_EQ(report.corrupt_dropped, 0u);
  EXPECT_FALSE(report.salvaged);
  EXPECT_EQ(capped.Size(), 2u);
  EXPECT_EQ(capped.Lookup("key|3"), "{\"status\":\"ok\",\"value\":30}");
  EXPECT_EQ(capped.Lookup("key|4"), "{\"status\":\"ok\",\"value\":40}");
  EXPECT_EQ(capped.Lookup("key|0"), "");

  // Round trip under the cap: save the survivors, reload, same bytes.
  capped.Save(path);
  ResultCache reloaded(kTag, /*max_entries=*/2);
  const CacheLoadReport second = reloaded.Load(path);
  EXPECT_EQ(second.loaded, 2u);
  EXPECT_EQ(second.cap_evicted, 0u);
  EXPECT_EQ(reloaded.Lookup("key|4"), "{\"status\":\"ok\",\"value\":40}");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Append-only journal
// ---------------------------------------------------------------------------

std::string Payload(int value) {
  return "{\"status\":\"ok\",\"value\":" + std::to_string(value) + "}";
}

// Stores key|first .. key|(first+count-1).
void StoreRange(ResultCache& cache, int first, int count) {
  for (int i = first; i < first + count; ++i) {
    cache.Store("key|" + std::to_string(i), Payload(i * 10));
  }
}

std::size_t CountLinesStartingWith(const std::string& text,
                                   const std::string& prefix) {
  std::size_t count = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) ++count;
  }
  return count;
}

TEST(ServeCache, PersistAppendsOneCommitPerCall) {
  const std::string path = TempPath("journal3");
  std::remove(path.c_str());
  ResultCache cache(kTag);
  StoreRange(cache, 0, 2);
  cache.Persist(path);  // no file yet: compacts
  const std::string first = ReadFile(path);
  StoreRange(cache, 2, 3);
  cache.Persist(path);
  const std::string second = ReadFile(path);
  StoreRange(cache, 5, 1);
  cache.Persist(path);
  const std::string third = ReadFile(path);

  // Each persist appended to the previous bytes; nothing was rewritten.
  EXPECT_EQ(second.compare(0, first.size(), first), 0);
  EXPECT_EQ(third.compare(0, second.size(), second), 0);
  EXPECT_EQ(CountLinesStartingWith(third, "entries "), 3u);
  EXPECT_EQ(CountLinesStartingWith(third, "end "), 3u);
  // Persisting with nothing new writes nothing.
  cache.Persist(path);
  EXPECT_EQ(ReadFile(path), third);

  ResultCache loaded(kTag);
  const CacheLoadReport report = loaded.Load(path);
  EXPECT_FALSE(report.salvaged);
  EXPECT_EQ(report.corrupt_dropped, 0u);
  EXPECT_EQ(report.loaded, 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(loaded.Lookup("key|" + std::to_string(i)), Payload(i * 10));
  }
  std::remove(path.c_str());
}

TEST(ServeCache, LoadedJournalKeepsAppending) {
  const std::string path = TempPath("journalreload");
  std::remove(path.c_str());
  {
    ResultCache cache(kTag);
    StoreRange(cache, 0, 3);
    cache.Persist(path);
    StoreRange(cache, 3, 2);
    cache.Persist(path);
  }
  const std::string before = ReadFile(path);

  // A strictly loaded journal is appended to, and its running hash was
  // seeded from the stored checksum: the grown file still verifies.
  ResultCache warm(kTag);
  ASSERT_FALSE(warm.Load(path).salvaged);
  StoreRange(warm, 5, 1);
  warm.Persist(path);
  const std::string after = ReadFile(path);
  EXPECT_EQ(after.compare(0, before.size(), before), 0);
  EXPECT_NO_THROW((void)experiment::VerifyChecksummedBody(after, path));

  ResultCache reloaded(kTag);
  const CacheLoadReport report = reloaded.Load(path);
  EXPECT_FALSE(report.salvaged);
  EXPECT_EQ(report.loaded, 6u);
  std::remove(path.c_str());
}

TEST(ServeCache, TornFinalCommitSalvagesCommittedEntriesThenCompacts) {
  const std::string path = TempPath("tornjournal");
  std::remove(path.c_str());
  {
    ResultCache cache(kTag);
    StoreRange(cache, 0, 3);
    cache.Persist(path);
    StoreRange(cache, 3, 2);
    cache.Persist(path);
  }
  // Tear the final commit mid-way through its last entry line.
  std::string contents = ReadFile(path);
  contents.resize(contents.rfind("entry ") + 10);
  WriteFile(path, contents);

  ResultCache loaded(kTag);
  const CacheLoadReport report = loaded.Load(path);
  EXPECT_TRUE(report.salvaged);
  EXPECT_GE(report.corrupt_dropped, 1u);
  // Every entry of the intact first commit survives (and so does the
  // complete line of the torn one).
  EXPECT_EQ(report.loaded, 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(loaded.Lookup("key|" + std::to_string(i)), Payload(i * 10));
  }

  // A salvaged load is not a journal: the next persist compacts it into a
  // strictly verifying file holding exactly the salvaged set.
  loaded.Persist(path);
  const std::string compacted = ReadFile(path);
  EXPECT_NO_THROW((void)experiment::VerifyChecksummedBody(compacted, path));
  EXPECT_EQ(CountLinesStartingWith(compacted, "entries "), 1u);
  ResultCache reloaded(kTag);
  const CacheLoadReport second = reloaded.Load(path);
  EXPECT_FALSE(second.salvaged);
  EXPECT_EQ(second.corrupt_dropped, 0u);
  EXPECT_EQ(second.loaded, 4u);
  std::remove(path.c_str());
}

TEST(ServeCache, FailedAppendLeavesFileByteIdenticalAndRetries) {
  const std::string path = TempPath("failedappend");
  std::remove(path.c_str());
  ResultCache cache(kTag);
  StoreRange(cache, 0, 2);
  cache.Persist(path);
  const std::string before = ReadFile(path);

  StoreRange(cache, 2, 1);
  {
    util::ScopedFaultInjection injection;
    injection->FailNth("checkpoint.write", 0);
    EXPECT_THROW(cache.Persist(path), experiment::CheckpointError);
  }
  // The failed append was truncated away.
  EXPECT_EQ(ReadFile(path), before);

  // The pending entry is retried by the next persist, as an append.
  cache.Persist(path);
  const std::string after = ReadFile(path);
  EXPECT_EQ(after.compare(0, before.size(), before), 0);
  EXPECT_EQ(CountLinesStartingWith(after, "entries "), 2u);
  ResultCache loaded(kTag);
  const CacheLoadReport report = loaded.Load(path);
  EXPECT_FALSE(report.salvaged);
  EXPECT_EQ(report.loaded, 3u);
  EXPECT_EQ(loaded.Lookup("key|2"), Payload(20));
  std::remove(path.c_str());
}

TEST(ServeCache, JournalLoadSaveIsByteIdenticalToSaveOfSameSet) {
  const std::string journal_path = TempPath("journalsave");
  const std::string resaved_path = TempPath("journalresaved");
  const std::string direct_path = TempPath("journaldirect");
  std::remove(journal_path.c_str());
  {
    ResultCache cache(kTag);
    StoreRange(cache, 4, 2);
    cache.Persist(journal_path);
    StoreRange(cache, 0, 3);
    cache.Persist(journal_path);
    StoreRange(cache, 3, 1);
    cache.Persist(journal_path);
  }
  ResultCache loaded(kTag);
  ASSERT_FALSE(loaded.Load(journal_path).salvaged);
  loaded.Save(resaved_path);

  ResultCache direct(kTag);
  StoreRange(direct, 0, 6);
  direct.Save(direct_path);
  EXPECT_EQ(ReadFile(resaved_path), ReadFile(direct_path));
  std::remove(journal_path.c_str());
  std::remove(resaved_path.c_str());
  std::remove(direct_path.c_str());
}

TEST(ServeCache, EvictingCacheWarmStartsWithExactlyItsSurvivors) {
  const std::string path = TempPath("evictjournal");
  const std::string survivors_path = TempPath("evictsurvivors");
  std::remove(path.c_str());
  {
    ResultCache capped(kTag, /*max_entries=*/2);
    for (int i = 0; i < 5; ++i) {
      StoreRange(capped, i, 1);  // from key|2 on, each store evicts one
      capped.Persist(path);
    }
  }
  ResultCache warm(kTag, /*max_entries=*/2);
  const CacheLoadReport report = warm.Load(path);
  EXPECT_FALSE(report.salvaged);
  EXPECT_EQ(report.loaded, 2u);
  EXPECT_EQ(report.cap_evicted, 0u);
  EXPECT_EQ(warm.Lookup("key|3"), Payload(30));
  EXPECT_EQ(warm.Lookup("key|4"), Payload(40));
  EXPECT_EQ(warm.Lookup("key|2"), "");

  // After an eviction the persist compacted: the file is exactly the one
  // an uncapped cache holding the survivors would write.
  ResultCache survivors(kTag);
  StoreRange(survivors, 3, 2);
  survivors.Save(survivors_path);
  EXPECT_EQ(ReadFile(path), ReadFile(survivors_path));
  std::remove(path.c_str());
  std::remove(survivors_path.c_str());
}

TEST(ServeCache, VersionOneFileStillLoads) {
  const std::string path = TempPath("version1");
  SaveCacheWithEntries(3, path);
  // Rewrite the header as the pre-journal format wrote it.
  const std::string v2 = ReadFile(path);
  std::string body = v2.substr(0, v2.rfind("end "));
  const std::string v2_magic = "wsnlink-servecache 2\n";
  ASSERT_EQ(body.compare(0, v2_magic.size(), v2_magic), 0);
  body.replace(0, v2_magic.size(), "wsnlink-servecache 1\n");
  experiment::WriteChecksummedFile(path, body);

  ResultCache loaded(kTag);
  const CacheLoadReport report = loaded.Load(path);
  EXPECT_FALSE(report.salvaged);
  EXPECT_FALSE(report.invalidated);
  EXPECT_EQ(report.corrupt_dropped, 0u);
  EXPECT_EQ(report.loaded, 3u);
  EXPECT_EQ(loaded.Lookup("key|2"), Payload(20));

  // A version-1 file is never appended to: the next persist upgrades it.
  StoreRange(loaded, 3, 1);
  loaded.Persist(path);
  const std::string upgraded = ReadFile(path);
  EXPECT_EQ(upgraded.compare(0, v2_magic.size(), v2_magic), 0);
  EXPECT_EQ(CountLinesStartingWith(upgraded, "entries "), 1u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// End-to-end through QueryService
// ---------------------------------------------------------------------------

constexpr const char* kWhatIfLine =
    "{\"verb\":\"what_if\",\"distance_m\":20,\"pa_level\":31,"
    "\"payload_bytes\":50,\"packets\":60,\"seed\":11}";

TEST(ServeCache, WarmStartedServiceAnswersFromDiskByteIdentical) {
  const std::string path = TempPath("warmstart");
  std::remove(path.c_str());

  ServiceOptions options;
  options.cache_path = path;
  std::string cold_answer;
  {
    QueryService service(options);
    cold_answer = service.Answer(kWhatIfLine);
    EXPECT_EQ(service.Stats().cache_misses, 1u);
  }  // dtor flushes

  QueryService warmed(options);
  EXPECT_EQ(warmed.Stats().warm_loaded, 1u);
  EXPECT_EQ(warmed.Answer(kWhatIfLine), cold_answer);
  const auto stats = warmed.Stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.computed_what_if, 0u);
  std::remove(path.c_str());
}

TEST(ServeCache, ServiceHonorsCacheEntryCap) {
  constexpr const char* kOtherLine =
      "{\"verb\":\"what_if\",\"distance_m\":20,\"pa_level\":31,"
      "\"payload_bytes\":50,\"packets\":60,\"seed\":12}";

  ServiceOptions options;
  options.cache_max_entries = 1;
  QueryService service(options);

  const std::string first = service.Answer(kWhatIfLine);
  const std::string second = service.Answer(kOtherLine);
  EXPECT_EQ(service.Stats().cache_entries, 1u);

  // The first answer was evicted by the second; recomputing it lands on
  // the same bytes (answers are pure functions of the key).
  EXPECT_EQ(service.Answer(kWhatIfLine), first);
  const auto stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.computed_what_if, 3u);
  EXPECT_EQ(stats.cache_entries, 1u);

  // And a repeat of the most recent store is a genuine hit.
  EXPECT_EQ(service.Answer(kWhatIfLine), first);
  EXPECT_EQ(service.Stats().cache_hits, 1u);
  (void)second;
}

TEST(ServeCache, CorruptPersistedEntryMeansRecomputeNotCorruption) {
  const std::string path = TempPath("recompute");
  std::remove(path.c_str());

  ServiceOptions options;
  options.cache_path = path;
  std::string cold_answer;
  {
    QueryService service(options);
    cold_answer = service.Answer(kWhatIfLine);
  }

  // Flip one byte in the persisted payload.
  std::string contents = ReadFile(path);
  const std::size_t pos = contents.find("goodput_kbps");
  ASSERT_NE(pos, std::string::npos);
  contents[pos] = 'G';
  WriteFile(path, contents);

  QueryService service(options);
  const auto warm = service.Stats();
  EXPECT_EQ(warm.warm_loaded, 0u);
  EXPECT_EQ(warm.corrupt_dropped, 1u);

  // The damaged entry is recomputed — and lands on the same bytes.
  const std::string recomputed = service.Answer(kWhatIfLine);
  EXPECT_EQ(recomputed, cold_answer);
  EXPECT_EQ(service.Stats().cache_misses, 1u);
  EXPECT_EQ(service.Stats().computed_what_if, 1u);
  std::remove(path.c_str());
}

TEST(ServeCache, ServiceMissPersistsOnlyItsOwnCommit) {
  constexpr const char* kOtherLine =
      "{\"verb\":\"what_if\",\"distance_m\":20,\"pa_level\":31,"
      "\"payload_bytes\":50,\"packets\":60,\"seed\":12}";
  const std::string path = TempPath("servicejournal");
  std::remove(path.c_str());

  ServiceOptions options;
  options.cache_path = path;
  {
    QueryService service(options);
    (void)service.Answer(kWhatIfLine);
  }
  const std::string before = ReadFile(path);

  QueryService warmed(options);
  const std::string answer = warmed.Answer(kOtherLine);
  const std::string after = ReadFile(path);
  // The miss appended one commit holding just its entry.
  ASSERT_EQ(after.compare(0, before.size(), before), 0);
  const std::string commit = after.substr(before.size());
  EXPECT_EQ(commit.find("entries 1\nentry "), 0u) << commit;
  EXPECT_LT(commit.size(), answer.size() + 512);
  std::remove(path.c_str());
}

TEST(ServeCache, PersistFailureDegradesToMemoryServing) {
  const std::string path = TempPath("persistfail");
  std::remove(path.c_str());

  ServiceOptions options;
  options.cache_path = path;
  QueryService service(options);

  std::string answer;
  {
    util::ScopedFaultInjection injection;
    injection->FailAfter("checkpoint.write", 0);  // disk stays full
    answer = service.Answer(kWhatIfLine);
    EXPECT_NE(answer.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_GE(service.Stats().persist_failures, 1u);
  }

  // Still serving (from memory), and the next flush succeeds.
  EXPECT_EQ(service.Answer(kWhatIfLine), answer);
  EXPECT_TRUE(service.Flush());
  ResultCache loaded(std::string(serve::kServeVersionTag));
  EXPECT_EQ(loaded.Load(path).loaded, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wsnlink
