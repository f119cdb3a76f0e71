// Randomized round-trip and malformed-input fuzzing for the two
// hand-rolled parsers (util/csv.cpp, util/args.cpp).
//
// The properties under test:
//  * CSV: any vector of byte strings written through CsvWriter /
//    EscapeCsvCell reads back cell-for-cell identical through ReadCsv —
//    including quotes, commas, CR, LF and CRLF content.
//  * CSV: malformed inputs (truncated rows, unterminated quotes, stray
//    bytes) either parse into *some* row shape or throw a typed
//    exception; they never crash and never mangle silently on the
//    round-trip path.
//  * Args: every random argv either parses or throws
//    std::invalid_argument; `--flag --other` and duplicate flags are
//    rejected instead of silently mis-binding.
//
// All "random" inputs come from a fixed-seed Rng, so failures reproduce.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/args.h"
#include "util/csv.h"
#include "util/rng.h"

namespace {

using wsnlink::util::Args;
using wsnlink::util::CsvData;
using wsnlink::util::CsvWriter;
using wsnlink::util::EscapeCsvCell;
using wsnlink::util::ParseCsvLine;
using wsnlink::util::ReadCsv;
using wsnlink::util::Rng;

std::filesystem::path TempCsvPath(const char* tag) {
  return std::filesystem::temp_directory_path() /
         (std::string("wsnlink_fuzz_") + tag + ".csv");
}

/// A random cell drawn from an alphabet rich in CSV metacharacters.
std::string RandomCell(Rng& rng) {
  static constexpr char kAlphabet[] = "ab,\"\n\r;x 0.5-";
  const auto len = static_cast<std::size_t>(rng.UniformInt(0, 12));
  std::string cell;
  cell.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    cell += kAlphabet[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(sizeof(kAlphabet)) - 2))];
  }
  return cell;
}

TEST(CsvFuzz, RandomCellsRoundTripExactly) {
  Rng rng(20150629);
  const auto path = TempCsvPath("roundtrip");
  for (int iter = 0; iter < 200; ++iter) {
    const auto columns = static_cast<std::size_t>(rng.UniformInt(1, 6));
    const auto rows = static_cast<std::size_t>(rng.UniformInt(0, 8));

    std::vector<std::string> headers(columns);
    for (std::size_t c = 0; c < columns; ++c) {
      // Headers must be distinguishable; content is still adversarial.
      // += rather than "literal" + std::string&&: GCC 12 reports a false
      // -Wrestrict overlap on the latter.
      std::string header = "h";
      header += std::to_string(c);
      header += RandomCell(rng);
      headers[c] = std::move(header);
    }
    std::vector<std::vector<std::string>> table(rows);
    for (auto& row : table) {
      row.resize(columns);
      for (auto& cell : row) cell = RandomCell(rng);
    }

    {
      CsvWriter writer(path.string(), headers);
      for (const auto& row : table) writer.WriteRow(row);
    }
    const CsvData data = ReadCsv(path.string());

    ASSERT_EQ(data.headers, headers) << "iteration " << iter;
    ASSERT_EQ(data.rows.size(), rows) << "iteration " << iter;
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(data.rows[r], table[r]) << "iteration " << iter;
    }
  }
  std::filesystem::remove(path);
}

TEST(CsvFuzz, CrlfLineEndingsAreStripped) {
  const auto path = TempCsvPath("crlf");
  {
    std::ofstream out(path);
    out << "a,b\r\n1,2\r\n3,4\r\n";
  }
  const CsvData data = ReadCsv(path.string());
  ASSERT_EQ(data.headers, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(data.rows.size(), 2u);
  EXPECT_EQ(data.rows[0], (std::vector<std::string>{"1", "2"}));
  // The numeric path must not choke on what used to be "2\r".
  EXPECT_EQ(data.NumericColumn("b"), (std::vector<double>{2.0, 4.0}));
  std::filesystem::remove(path);
}

TEST(CsvFuzz, QuotedEmbeddedNewlinesStayOneRecord) {
  const auto path = TempCsvPath("multiline");
  {
    std::ofstream out(path);
    out << "name,note\n";
    out << "x,\"line one\nline two\"\n";
    out << "y,plain\n";
  }
  const CsvData data = ReadCsv(path.string());
  ASSERT_EQ(data.rows.size(), 2u);
  EXPECT_EQ(data.rows[0][1], "line one\nline two");
  EXPECT_EQ(data.rows[1][1], "plain");
  std::filesystem::remove(path);
}

TEST(CsvFuzz, UnterminatedQuoteThrowsInsteadOfHanging) {
  const auto path = TempCsvPath("unterminated");
  {
    std::ofstream out(path);
    out << "a,b\n";
    out << "1,\"never closed\n";
  }
  EXPECT_THROW((void)ReadCsv(path.string()), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(CsvFuzz, MalformedBytesNeverCrash) {
  Rng rng(42);
  const auto path = TempCsvPath("malformed");
  static constexpr char kBytes[] = ",\"\n\r a1.;\t";
  for (int iter = 0; iter < 300; ++iter) {
    {
      std::ofstream out(path, std::ios::binary);
      const auto len = static_cast<std::size_t>(rng.UniformInt(0, 64));
      for (std::size_t i = 0; i < len; ++i) {
        out << kBytes[static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(sizeof(kBytes)) - 2))];
      }
    }
    // Must either produce a table or throw a typed error; anything else
    // (crash, hang, UB) fails the test by construction.
    try {
      const CsvData data = ReadCsv(path.string());
      for (const auto& row : data.rows) EXPECT_GE(row.size(), 1u);
    } catch (const std::runtime_error&) {
    }
  }
  std::filesystem::remove(path);
}

TEST(CsvFuzz, TruncatedRowsSurfaceAsShortRowError) {
  const auto path = TempCsvPath("truncated");
  {
    std::ofstream out(path);
    out << "a,b,c\n1,2,3\n4,5\n";
  }
  const CsvData data = ReadCsv(path.string());
  ASSERT_EQ(data.rows.size(), 2u);
  // The short row parses (lenient reader) but the typed column accessor
  // refuses to fabricate the missing cell.
  EXPECT_THROW((void)data.NumericColumn("c"), std::runtime_error);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Args
// ---------------------------------------------------------------------------

Args Parse(std::vector<std::string> argv,
           const std::vector<std::string>& switches = {}) {
  static const std::vector<std::string> kValueFlags = {
      "--out", "--stride", "--count", "--offset", "--a", "--c"};
  std::vector<const char*> raw;
  raw.push_back("prog");
  for (const auto& a : argv) raw.push_back(a.c_str());
  return Args(static_cast<int>(raw.size()), raw.data(), kValueFlags,
              switches);
}

TEST(ArgsFuzz, FlagFollowedByFlagIsMissingValue) {
  EXPECT_THROW(Parse({"--out", "--stride", "3"}), std::invalid_argument);
}

TEST(ArgsFuzz, DuplicateFlagIsRejected) {
  EXPECT_THROW(Parse({"--stride", "3", "--stride", "4"}),
               std::invalid_argument);
}

TEST(ArgsFuzz, NegativeSizeIsRejectedNotWrapped) {
  const auto args = Parse({"--count", "-3"});
  EXPECT_THROW((void)args.GetSize("--count", 0), std::invalid_argument);
}

TEST(ArgsFuzz, NegativeValuesAreNotMistakenForFlags) {
  const auto args = Parse({"--offset", "-3.5"});
  EXPECT_DOUBLE_EQ(args.GetDouble("--offset", 0.0), -3.5);
}

TEST(ArgsFuzz, RandomArgvParsesOrThrowsTypedError) {
  Rng rng(7);
  static const std::vector<std::string> kTokens = {
      "--a",  "--b",   "--a",  "7",     "-1",   "3.5",
      "pos",  "--",    "x,y",  "--c",   "",     "12abc",
  };
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<std::string> argv;
    const auto len = static_cast<std::size_t>(rng.UniformInt(0, 6));
    for (std::size_t i = 0; i < len; ++i) {
      argv.push_back(kTokens[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(kTokens.size()) - 1))]);
    }
    try {
      const auto args = Parse(argv, {"--b"});
      // Accessors on whatever parsed must also be total: value or typed
      // throw, never UB.
      for (const char* flag : {"--a", "--b", "--c"}) {
        try {
          (void)args.GetDouble(flag, 0.0);
          (void)args.GetSize(flag, 0);
          (void)args.GetInt(flag, 0);
        } catch (const std::invalid_argument&) {
        } catch (const std::out_of_range&) {
        }
      }
    } catch (const std::invalid_argument&) {
    }
  }
}

}  // namespace
