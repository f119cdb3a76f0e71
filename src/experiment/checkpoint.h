// Campaign checkpoint files: crash-safe persistence of completed work.
//
// The paper's dataset took six months of wall clock to measure; our
// synthetic equivalent is a long RunCampaign sweep that, before this
// subsystem, lost every completed configuration on a crash, OOM-kill or
// power cut. A checkpoint records which configuration indices have
// completed and their exact serialized summary rows, plus the seed
// contract they were produced under, so a resumed campaign (a) re-runs
// only the remainder and (b) emits a summary CSV byte-identical to an
// uninterrupted run — rows are stored as the verbatim strings the CSV
// writer would emit, never re-formatted.
//
// File format (version 1, line-based text, LF endings):
//
//   wsnlink-checkpoint 1
//   base_seed <u64>
//   packet_count <int>
//   stride <u64>
//   space_size <u64>
//   config_count <u64>
//   rows <N>
//   row <index> <ok|failed>\t<error>\t<summary-csv-row>     (N lines)
//   end <fnv1a64-hex of every preceding byte>
//
// Writes are atomic (tmp file + rename), so a crash mid-write leaves the
// previous checkpoint intact; the trailing checksum line turns truncation
// and bit rot into loud CheckpointError rejections instead of silently
// resumed garbage.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace wsnlink::experiment {

/// Any checkpoint I/O or validation failure: missing/unreadable file, bad
/// magic, unsupported version, truncation, checksum mismatch, malformed
/// record, or (at resume) a seed-contract mismatch.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error(what) {}
};

inline constexpr int kCheckpointFormatVersion = 1;

/// The reproducibility contract a checkpoint was taken under. Resume
/// refuses to mix checkpoints across contracts: completed rows are only
/// reusable when every seed-relevant knob matches (PR 2's seed-injectivity
/// guarantee keys each config's RNG stream to (base_seed, index)).
struct CheckpointMeta {
  std::uint64_t base_seed = 0;
  int packet_count = 0;
  std::uint64_t stride = 1;
  /// Size of the unsampled configuration space.
  std::uint64_t space_size = 0;
  /// Configurations in the (strided) campaign; row indices are < this.
  std::uint64_t config_count = 0;

  friend bool operator==(const CheckpointMeta&, const CheckpointMeta&) =
      default;
};

/// One completed configuration.
struct CheckpointRow {
  std::uint64_t index = 0;
  bool failed = false;
  /// Structured error message when failed (sanitised to one line).
  std::string error;
  /// The verbatim summary-CSV row (see dataset.h SerializeSummaryRow).
  std::string csv_row;
};

struct Checkpoint {
  CheckpointMeta meta;
  std::vector<CheckpointRow> rows;
};

/// Atomically (tmp + rename) writes `checkpoint`. Throws CheckpointError
/// on any I/O failure; the previous file at `path`, if any, is untouched
/// in that case.
void WriteCheckpoint(const std::string& path, const Checkpoint& checkpoint);

/// Reads and fully validates a checkpoint. Throws CheckpointError with a
/// clear message on any corruption; never returns partial data.
[[nodiscard]] Checkpoint ReadCheckpoint(const std::string& path);

/// FNV-1a 64-bit over `bytes` (exposed for the corruption tests; also the
/// content-address hash of the serve result cache).
[[nodiscard]] std::uint64_t CheckpointChecksum(std::string_view bytes) noexcept;

/// Continues an FNV-1a 64-bit hash whose state after the bytes hashed so
/// far is `state` (an FNV-1a state is the hash of those bytes) over
/// `bytes`: CheckpointChecksumContinue(CheckpointChecksum(a), b) ==
/// CheckpointChecksum(a + b). Lets an append hash only what it appends.
[[nodiscard]] std::uint64_t CheckpointChecksumContinue(
    std::uint64_t state, std::string_view bytes) noexcept;

/// The committed end of a checksummed file: its length in bytes and the
/// FNV-1a state over all of them, trailing "end" line included. An append
/// continues from here.
struct ChecksummedTail {
  std::uint64_t size = 0;
  std::uint64_t hash = 0;
};

/// Atomically (tmp + rename) publishes `body` followed by a trailing
/// "end <fnv1a64-hex>\n" checksum line at `path` — the write half of the
/// checkpoint line format, shared by campaign checkpoints and the serve
/// result cache (serve/result_cache.h). Instrumented at the
/// "checkpoint.write" fault-injection site; on any failure (real or
/// injected) the tmp file is removed, any previous file at `path` is left
/// intact, and CheckpointError is thrown. Returns the new file's tail.
ChecksummedTail WriteChecksummedFile(const std::string& path,
                                     std::string_view body);

/// Appends `body` followed by an "end <fnv1a64-hex>\n" line to the
/// checksummed file at `path`, whose committed bytes `*tail` describes.
/// The new checksum covers every preceding byte of the file, earlier end
/// lines included, so the grown file still passes VerifyChecksummedBody.
/// Only the appended bytes are hashed. Instrumented at the
/// "checkpoint.write" site; on any failure (real or injected) the file is
/// truncated back to tail->size, byte-identical to before, `*tail` is
/// unchanged and CheckpointError is thrown. On success `*tail` describes
/// the grown file.
void AppendChecksummedFile(const std::string& path, std::string_view body,
                           ChecksummedTail* tail);

/// Verifies and strips the trailing "end <checksum>" line of a file's
/// contents: returns the checksummed body on success, throws
/// CheckpointError naming `path` on truncation, append damage, a malformed
/// checksum line or a checksum mismatch. The read half of the shared
/// format.
[[nodiscard]] std::string_view VerifyChecksummedBody(std::string_view contents,
                                                     const std::string& path);

}  // namespace wsnlink::experiment
