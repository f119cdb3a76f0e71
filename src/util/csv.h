// Minimal CSV writer/reader for dataset export.
//
// The experiment campaign emits the same per-packet metadata schema the
// paper's public dataset used; this module handles the file format. The
// reader exists so tests can round-trip what the campaign wrote and so
// downstream analysis (fitting) can run off a dumped dataset instead of a
// live simulation.
#pragma once

#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace wsnlink::util {

/// Streams rows to a CSV file. Throws std::runtime_error (with the path in
/// the message) if the file cannot be opened or any write fails — a full
/// disk must never produce a silently truncated dataset. Call Close() to
/// surface flush/close failures; the destructor closes too but swallows
/// errors (destructors must not throw), so callers that care about
/// durability close explicitly.
class CsvWriter {
 public:
  CsvWriter(const std::string& path, std::vector<std::string> headers);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Writes one row; the cell count must equal the header count. Throws
  /// std::runtime_error when the stream reports a write failure.
  void WriteRow(const std::vector<std::string>& cells);

  /// Flushes and closes, throwing std::runtime_error if either fails.
  /// Idempotent; after Close() the writer accepts no more rows.
  void Close();

  // wsnstatic:allow(unreached): test-only; Csv.WriteReadRoundTrip reads it
  [[nodiscard]] std::size_t RowsWritten() const noexcept { return rows_; }

 private:
  void WriteCells(const std::vector<std::string>& cells);
  void ThrowIfBad(const char* action);

  std::ofstream out_;
  std::string path_;
  std::size_t columns_;
  std::size_t rows_ = 0;
  bool closed_ = false;
};

/// Fully parsed CSV contents.
struct CsvData {
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> rows;

  /// Index of a header column; throws std::out_of_range if absent.
  [[nodiscard]] std::size_t ColumnIndex(std::string_view name) const;

  /// Column values parsed as doubles; throws on non-numeric cells.
  [[nodiscard]] std::vector<double> NumericColumn(std::string_view name) const;
};

/// Reads an entire CSV file (with header line). Handles quoted cells with
/// embedded commas and doubled quotes.
[[nodiscard]] CsvData ReadCsv(const std::string& path);

/// Splits a single CSV line into cells (exposed for tests).
[[nodiscard]] std::vector<std::string> ParseCsvLine(std::string_view line);

/// Escapes a cell for CSV output (exposed for tests).
[[nodiscard]] std::string EscapeCsvCell(std::string_view cell);

}  // namespace wsnlink::util
