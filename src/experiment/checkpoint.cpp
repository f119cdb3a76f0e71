#include "experiment/checkpoint.h"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/fault_injection.h"

namespace wsnlink::experiment {

namespace {

constexpr std::string_view kMagic = "wsnlink-checkpoint";

/// One-line form of an error message: the checkpoint format is line-based
/// and tab-delimited, so control characters become spaces.
std::string SanitizeError(std::string_view error) {
  std::string out(error);
  for (char& ch : out) {
    if (ch == '\t' || ch == '\n' || ch == '\r') ch = ' ';
  }
  return out;
}

std::uint64_t ParseU64(std::string_view text, const char* what) {
  std::uint64_t v{};
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                         v);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw CheckpointError(std::string("checkpoint: bad ") + what + " '" +
                          std::string(text) + "'");
  }
  return v;
}

/// Expects "<key> <value>" and returns the value.
std::string_view ExpectKeyLine(std::string_view line, std::string_view key) {
  if (line.substr(0, key.size()) != key || line.size() <= key.size() ||
      line[key.size()] != ' ') {
    throw CheckpointError("checkpoint: expected '" + std::string(key) +
                          " <value>' line, got '" + std::string(line) + "'");
  }
  return line.substr(key.size() + 1);
}

/// The "end <fnv1a64-hex>\n" line that seals a checksummed body.
std::string EndLine(std::uint64_t checksum) {
  char line[22];
  std::snprintf(line, sizeof(line), "end %016llx\n",
                static_cast<unsigned long long>(checksum));
  return line;
}

/// Flushes `out` and applies the "checkpoint.write" fault site to it.
/// Returns false when the write failed (really or by injection).
bool FlushedOk(std::ofstream& out) {
  out.flush();
  auto& injector = util::FaultInjector::Global();
  if (injector.Armed() && injector.ShouldFail("checkpoint.write")) {
    out.setstate(std::ios::failbit);
  }
  return static_cast<bool>(out);
}

}  // namespace

std::uint64_t CheckpointChecksumContinue(std::uint64_t state,
                                         std::string_view bytes) noexcept {
  for (const unsigned char ch : bytes) {
    state ^= ch;
    state *= 0x100000001B3ULL;  // FNV prime
  }
  return state;
}

std::uint64_t CheckpointChecksum(std::string_view bytes) noexcept {
  // FNV-1a 64 offset basis.
  return CheckpointChecksumContinue(0xCBF29CE484222325ULL, bytes);
}

ChecksummedTail WriteChecksummedFile(const std::string& path,
                                     std::string_view body) {
  const std::uint64_t checksum = CheckpointChecksum(body);
  const std::string end_line = EndLine(checksum);

  // Atomic publish: a crash (or injected failure) while writing the tmp
  // file leaves any previous file at `path` intact.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw CheckpointError("checkpoint: cannot open " + tmp);
    }
    out << body << end_line;
    if (!FlushedOk(out)) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw CheckpointError("checkpoint: write failed for " + tmp +
                            " (disk full or I/O error?)");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code remove_ec;
    std::filesystem::remove(tmp, remove_ec);
    throw CheckpointError("checkpoint: cannot rename " + tmp + " to " + path +
                          ": " + ec.message());
  }
  return {body.size() + end_line.size(),
          CheckpointChecksumContinue(checksum, end_line)};
}

void AppendChecksummedFile(const std::string& path, std::string_view body,
                           ChecksummedTail* tail) {
  const std::uint64_t checksum = CheckpointChecksumContinue(tail->hash, body);
  const std::string end_line = EndLine(checksum);
  {
    // in|out opens without truncating; writing at the committed length
    // (not at the physical end) also overwrites any stray tail bytes.
    std::ofstream out(path, std::ios::binary | std::ios::in | std::ios::out);
    if (!out) {
      throw CheckpointError("checkpoint: cannot open " + path +
                            " for append");
    }
    out.seekp(static_cast<std::streamoff>(tail->size));
    out << body << end_line;
    if (!FlushedOk(out)) {
      out.close();
      // Roll back to the last commit: the file is byte-identical to before.
      std::error_code ec;
      std::filesystem::resize_file(path, tail->size, ec);
      throw CheckpointError("checkpoint: append failed for " + path +
                            " (disk full or I/O error?)");
    }
  }
  tail->size += body.size() + end_line.size();
  tail->hash = CheckpointChecksumContinue(checksum, end_line);
}

std::string_view VerifyChecksummedBody(std::string_view contents,
                                       const std::string& path) {
  // The `end <checksum>` line must be the final line; anything after it
  // (or a missing/short final line) means truncation or append damage.
  if (contents.empty() || contents.back() != '\n') {
    throw CheckpointError("checkpoint: truncated file " + path);
  }
  const std::size_t end_line_start = contents.rfind('\n', contents.size() - 2);
  const std::size_t body_size =
      end_line_start == std::string_view::npos ? 0 : end_line_start + 1;
  const std::string_view end_line =
      contents.substr(body_size, contents.size() - body_size - 1);
  if (end_line.substr(0, 4) != "end ") {
    throw CheckpointError("checkpoint: missing end line in " + path +
                          " (truncated write?)");
  }
  const std::string_view hex = end_line.substr(4);
  std::uint64_t stored{};
  const auto [hex_ptr, hex_ec] =
      std::from_chars(hex.data(), hex.data() + hex.size(), stored, 16);
  if (hex_ec != std::errc() || hex_ptr != hex.data() + hex.size()) {
    throw CheckpointError("checkpoint: malformed checksum in " + path);
  }
  const std::string_view body = contents.substr(0, body_size);
  if (CheckpointChecksum(body) != stored) {
    throw CheckpointError("checkpoint: checksum mismatch in " + path +
                          " (corrupt or tampered file)");
  }
  return body;
}

// wsnstatic:serdes(Checkpoint, WriteCheckpoint, ReadCheckpoint): resume-file contract; every field must survive a write/read cycle
// wsnstatic:serdes(CheckpointMeta, WriteCheckpoint, ReadCheckpoint): sweep-identity header; a dropped field silently resumes the wrong sweep
// wsnstatic:serdes(CheckpointRow, WriteCheckpoint, ReadCheckpoint): per-config result row; a dropped field loses completed work on resume
void WriteCheckpoint(const std::string& path, const Checkpoint& checkpoint) {
  std::string body;
  body.reserve(256 + checkpoint.rows.size() * 192);
  body += kMagic;
  body += ' ';
  body += std::to_string(kCheckpointFormatVersion);
  body += '\n';
  body += "base_seed " + std::to_string(checkpoint.meta.base_seed) + "\n";
  body += "packet_count " + std::to_string(checkpoint.meta.packet_count) + "\n";
  body += "stride " + std::to_string(checkpoint.meta.stride) + "\n";
  body += "space_size " + std::to_string(checkpoint.meta.space_size) + "\n";
  body +=
      "config_count " + std::to_string(checkpoint.meta.config_count) + "\n";
  body += "rows " + std::to_string(checkpoint.rows.size()) + "\n";
  for (const auto& row : checkpoint.rows) {
    body += "row ";
    body += std::to_string(row.index);
    body += row.failed ? " failed\t" : " ok\t";
    body += SanitizeError(row.error);
    body += '\t';
    body += row.csv_row;
    body += '\n';
  }
  WriteChecksummedFile(path, body);
}

Checkpoint ReadCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CheckpointError("checkpoint: cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = buffer.str();
  const std::string_view body = VerifyChecksummedBody(contents, path);

  // Split the verified body into lines.
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos < body.size()) {
    const std::size_t nl = body.find('\n', pos);
    lines.push_back(body.substr(pos, nl - pos));
    pos = nl + 1;
  }
  if (lines.size() < 7) {
    throw CheckpointError("checkpoint: header incomplete in " + path);
  }

  // Magic + version.
  const std::string_view first = lines[0];
  if (first.substr(0, kMagic.size()) != kMagic) {
    throw CheckpointError("checkpoint: " + path +
                          " is not a wsnlink checkpoint file");
  }
  const std::uint64_t version =
      ParseU64(ExpectKeyLine(first, kMagic), "version");
  if (version != static_cast<std::uint64_t>(kCheckpointFormatVersion)) {
    throw CheckpointError(
        "checkpoint: unsupported version " + std::to_string(version) + " in " +
        path + " (this build reads version " +
        std::to_string(kCheckpointFormatVersion) + ")");
  }

  Checkpoint checkpoint;
  checkpoint.meta.base_seed =
      ParseU64(ExpectKeyLine(lines[1], "base_seed"), "base_seed");
  checkpoint.meta.packet_count = static_cast<int>(
      ParseU64(ExpectKeyLine(lines[2], "packet_count"), "packet_count"));
  checkpoint.meta.stride = ParseU64(ExpectKeyLine(lines[3], "stride"), "stride");
  checkpoint.meta.space_size =
      ParseU64(ExpectKeyLine(lines[4], "space_size"), "space_size");
  checkpoint.meta.config_count =
      ParseU64(ExpectKeyLine(lines[5], "config_count"), "config_count");
  const std::uint64_t row_count =
      ParseU64(ExpectKeyLine(lines[6], "rows"), "rows");

  if (lines.size() != 7 + row_count) {
    throw CheckpointError(
        "checkpoint: row count mismatch in " + path + " (header says " +
        std::to_string(row_count) + ", file has " +
        std::to_string(lines.size() - 7) + ")");
  }

  checkpoint.rows.reserve(row_count);
  for (std::uint64_t r = 0; r < row_count; ++r) {
    const std::string_view line = lines[7 + r];
    const std::string_view rest = ExpectKeyLine(line, "row");
    const std::size_t sp = rest.find(' ');
    const std::size_t tab1 = rest.find('\t');
    const std::size_t tab2 =
        tab1 == std::string_view::npos ? tab1 : rest.find('\t', tab1 + 1);
    if (sp == std::string_view::npos || tab1 == std::string_view::npos ||
        tab2 == std::string_view::npos || sp > tab1) {
      throw CheckpointError("checkpoint: malformed row record in " + path);
    }
    CheckpointRow row;
    row.index = ParseU64(rest.substr(0, sp), "row index");
    const std::string_view status = rest.substr(sp + 1, tab1 - sp - 1);
    if (status == "ok") {
      row.failed = false;
    } else if (status == "failed") {
      row.failed = true;
    } else {
      throw CheckpointError("checkpoint: unknown row status '" +
                            std::string(status) + "' in " + path);
    }
    row.error = std::string(rest.substr(tab1 + 1, tab2 - tab1 - 1));
    row.csv_row = std::string(rest.substr(tab2 + 1));
    if (row.index >= checkpoint.meta.config_count) {
      throw CheckpointError("checkpoint: row index " +
                            std::to_string(row.index) +
                            " out of range in " + path);
    }
    checkpoint.rows.push_back(std::move(row));
  }
  return checkpoint;
}

}  // namespace wsnlink::experiment
