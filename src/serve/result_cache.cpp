#include "serve/result_cache.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "experiment/checkpoint.h"

namespace wsnlink::serve {

namespace {

constexpr std::string_view kMagic = "wsnlink-servecache";

std::string MagicLine(int version) {
  return std::string(kMagic) + " " + std::to_string(version);
}

std::string HashHex(std::string_view bytes) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    experiment::CheckpointChecksum(bytes)));
  return buf;
}

std::vector<std::string_view> SplitLines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      lines.push_back(text.substr(pos));
      break;
    }
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

/// Parses one `entry <keyhash> <payloadsum> <key> <payload>` line and,
/// with `verify` set, checks both checksums. Returns false on any damage.
/// Only salvage needs the per-entry checksums: in a file whose final
/// checksum verified they are already covered, so a strict load skips
/// them and hashes the file once.
bool ParseEntryLine(std::string_view line, bool verify, std::string* key,
                    std::string* payload) {
  constexpr std::string_view kPrefix = "entry ";
  if (line.substr(0, kPrefix.size()) != kPrefix) return false;
  std::string_view rest = line.substr(kPrefix.size());
  const std::size_t sp1 = rest.find(' ');
  if (sp1 == std::string_view::npos) return false;
  const std::size_t sp2 = rest.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return false;
  const std::size_t sp3 = rest.find(' ', sp2 + 1);
  if (sp3 == std::string_view::npos) return false;
  const std::string_view key_hash = rest.substr(0, sp1);
  const std::string_view payload_sum = rest.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view key_text = rest.substr(sp2 + 1, sp3 - sp2 - 1);
  const std::string_view payload_text = rest.substr(sp3 + 1);
  if (key_text.empty() || payload_text.empty()) return false;
  if (verify && (HashHex(key_text) != key_hash ||
                 HashHex(payload_text) != payload_sum)) {
    return false;
  }
  *key = std::string(key_text);
  *payload = std::string(payload_text);
  return true;
}

void AppendEntryLine(std::string* out, const std::string& key,
                     const std::string& payload) {
  *out += "entry ";
  *out += HashHex(key);
  *out += ' ';
  *out += HashHex(payload);
  *out += ' ';
  *out += key;
  *out += ' ';
  *out += payload;
  *out += '\n';
}

}  // namespace

ResultCache::ResultCache(std::string version_tag, std::size_t max_entries)
    : version_tag_(std::move(version_tag)), max_entries_(max_entries) {
  if (version_tag_.empty() ||
      version_tag_.find_first_of(" \t\n\r") != std::string::npos) {
    throw std::invalid_argument(
        "ResultCache: version tag must be non-empty and whitespace-free");
  }
}

std::size_t ResultCache::EvictOverCapLocked() {
  std::size_t evicted = 0;
  while (max_entries_ != 0 && entries_.size() > max_entries_) {
    // insertion_order_ and entries_ always hold the same key set, so the
    // front key is present by construction.
    entries_.erase(insertion_order_.front());
    insertion_order_.pop_front();
    ++evicted;
  }
  evictions_ += evicted;
  // The journal now holds dead entries: the next persist compacts.
  if (evicted != 0) journal_path_.clear();
  return evicted;
}

std::string ResultCache::Lookup(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  return it == entries_.end() ? std::string() : it->second;
}

void ResultCache::Store(const std::string& key, const std::string& payload) {
  if (key.empty() || key.find_first_of(" \t\n\r") != std::string::npos) {
    throw std::invalid_argument(
        "ResultCache: keys must be non-empty and whitespace-free");
  }
  if (payload.empty() ||
      payload.find_first_of("\n\r") != std::string::npos) {
    throw std::invalid_argument(
        "ResultCache: payloads must be non-empty single lines");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const bool inserted = entries_.emplace(key, payload).second;
  // A duplicate store is a no-op that must not refresh the entry's FIFO
  // position — eviction order is pure insertion order, never recency.
  if (!inserted) return;
  insertion_order_.push_back(key);
  ++unsynced_;
  (void)EvictOverCapLocked();
}

std::size_t ResultCache::Size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t ResultCache::Evictions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

void ResultCache::Save(const std::string& path) {
  WriteJournal(path, /*append=*/false);
}

void ResultCache::Persist(const std::string& path) {
  WriteJournal(path, /*append=*/true);
}

// wsnstatic:serdes(ResultCache, WriteJournal, Load): persistent-cache contract; every persisted field must survive a save/load cycle
void ResultCache::WriteJournal(const std::string& path, bool append) {
  std::error_code size_ec;
  const std::uint64_t on_disk =
      append ? std::filesystem::file_size(path, size_ec) : 0;
  std::string body;
  experiment::ChecksummedTail tail;
  std::size_t committed = 0;
  std::uint64_t evictions_before = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    append = append && !size_ec && journal_path_ == path &&
             on_disk == journal_tail_.size;
    if (append && unsynced_ == 0) return;
    committed = unsynced_;
    evictions_before = evictions_;
    tail = journal_tail_;
    if (append) {
      // The unsynced entries are the newest insertions; a commit lists
      // them in key order, like a compacted file.
      std::vector<const std::string*> keys;
      keys.reserve(committed);
      for (auto it = insertion_order_.end() - static_cast<std::ptrdiff_t>(
                                                  committed);
           it != insertion_order_.end(); ++it) {
        keys.push_back(&*it);
      }
      std::sort(keys.begin(), keys.end(),
                [](const std::string* a, const std::string* b) {
                  return *a < *b;
                });
      body += "entries " + std::to_string(keys.size()) + "\n";
      for (const std::string* key : keys) {
        AppendEntryLine(&body, *key, entries_.at(*key));
      }
    } else {
      body.reserve(128 + entries_.size() * 256);
      body += MagicLine(kCacheFormatVersion);
      body += '\n';
      body += "version_tag " + version_tag_ + "\n";
      body += "entries " + std::to_string(entries_.size()) + "\n";
      // std::map iteration: entries serialize in key order, so the same
      // cache contents always produce the same bytes.
      for (const auto& [key, payload] : entries_) {
        AppendEntryLine(&body, key, payload);
      }
    }
  }
  if (append) {
    experiment::AppendChecksummedFile(path, body, &tail);
  } else {
    tail = experiment::WriteChecksummedFile(path, body);
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  // Entries stored while the file was written stay unsynced. An eviction
  // meanwhile means the file may hold a dead entry: forget the journal so
  // the next persist compacts.
  unsynced_ -= committed;
  if (evictions_ == evictions_before) {
    journal_path_ = path;
    journal_tail_ = tail;
  } else {
    journal_path_.clear();
  }
}

CacheLoadReport ResultCache::Load(const std::string& path) {
  CacheLoadReport report;
  std::map<std::string, std::string> loaded;
  // Set only for a strictly verified current-version journal.
  std::string journal_path;
  experiment::ChecksummedTail tail;
  const auto install = [&]() {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_ = std::move(loaded);
    // Re-anchor the FIFO to key order — the file's own deterministic entry
    // order — so capping a loaded cache keeps the *last* max_entries keys
    // no matter which daemon wrote the file.
    insertion_order_.clear();
    for (const auto& [key, payload] : entries_) {
      insertion_order_.push_back(key);
    }
    unsynced_ = 0;
    journal_path_ = std::move(journal_path);
    journal_tail_ = tail;
    report.cap_evicted = EvictOverCapLocked();
    report.loaded = entries_.size();
    return report;
  };

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    report.missing = true;
    return install();
  }
  std::string contents;
  in.seekg(0, std::ios::end);
  contents.resize(static_cast<std::size_t>(std::max<std::streamoff>(
      in.tellg(), 0)));
  in.seekg(0);
  in.read(contents.data(), static_cast<std::streamsize>(contents.size()));
  contents.resize(static_cast<std::size_t>(in.gcount()));

  std::string_view body;
  bool strict = true;
  try {
    body = experiment::VerifyChecksummedBody(contents, path);
  } catch (const experiment::CheckpointError&) {
    // Whole-file checksum failed: salvage every entry line that verifies
    // on its own. A flipped byte costs one entry, not the cache.
    body = contents;
    strict = false;
    report.salvaged = true;
  }

  const auto lines = SplitLines(body);
  // Header: magic+version and version_tag must be intact even in salvage
  // mode — without a trustworthy tag the entries cannot be attributed to a
  // code version, so the only safe answer is a cold start. Version 1 files
  // are one-commit files of the same grammar.
  const bool current_version =
      !lines.empty() && lines[0] == MagicLine(kCacheFormatVersion);
  constexpr std::string_view kTagPrefix = "version_tag ";
  if (lines.size() < 2 || !(current_version || lines[0] == MagicLine(1)) ||
      lines[1].substr(0, kTagPrefix.size()) != kTagPrefix) {
    report.corrupt_dropped = lines.size();
    return install();
  }
  if (lines[1].substr(kTagPrefix.size()) != version_tag_) {
    // Different code version: every persisted answer is suspect. Discard.
    report.invalidated = true;
    return install();
  }

  // Strict structure: one or more commits of `entries <k>`, k entry
  // lines, `end` — the last commit's end line already stripped by the
  // verifier. Salvage mode ignores the structure and keeps every entry
  // line that verifies on its own.
  std::size_t dropped = 0;
  std::size_t declared = 0;
  std::size_t owed = 0;
  bool in_commit = false;
  bool well_formed = true;
  for (std::size_t i = 2; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    if (line.empty()) continue;
    if (line.substr(0, 4) == "end ") {
      well_formed = well_formed && in_commit && owed == 0;
      in_commit = false;
      continue;
    }
    constexpr std::string_view kEntries = "entries ";
    if (line.substr(0, kEntries.size()) == kEntries) {
      const std::string_view digits = line.substr(kEntries.size());
      std::size_t count = 0;
      const auto [ptr, ec] =
          std::from_chars(digits.data(), digits.data() + digits.size(), count);
      well_formed = well_formed && !in_commit && ec == std::errc() &&
                    ptr == digits.data() + digits.size();
      in_commit = true;
      owed = count;
      declared += count;
      continue;
    }
    std::string key;
    std::string payload;
    if (ParseEntryLine(line, /*verify=*/!strict, &key, &payload)) {
      const bool fresh =
          loaded.emplace(std::move(key), std::move(payload)).second;
      well_formed = well_formed && fresh && owed != 0;
      if (owed != 0) --owed;
    } else {
      ++dropped;
    }
  }
  if (strict && (!well_formed || !in_commit || owed != 0 || dropped != 0)) {
    // A verified file must parse perfectly; anything else is a format bug
    // or in-memory damage. Degrade to what did parse and report the rest.
    dropped += declared > loaded.size() ? declared - loaded.size() : 0;
    report.salvaged = true;
  }
  // The verified end line holds the checksum of the whole body: seed the
  // running hash from it instead of hashing the file a second time.
  const std::string_view end_line =
      std::string_view(contents).substr(body.size());
  std::uint64_t stored = 0;
  if (!report.salvaged && current_version &&
      std::from_chars(end_line.data() + 4,
                      end_line.data() + end_line.size() - 1, stored, 16)
              .ec == std::errc()) {
    journal_path = path;
    tail = {contents.size(),
            experiment::CheckpointChecksumContinue(stored, end_line)};
  }
  report.corrupt_dropped = dropped;
  return install();
}

std::string ResultCache::KeyHashHex(std::string_view key) {
  return HashHex(key);
}

}  // namespace wsnlink::serve
