// Tests for the command-line flag parser.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "util/args.h"

namespace wsnlink::util {
namespace {

// The value flags every test binary below accepts.
const std::vector<std::string> kValueFlags = {
    "--out", "--stride", "--objective", "--distance", "--packets"};

Args Parse(std::vector<const char*> argv,
           const std::vector<std::string>& switches = {}) {
  argv.insert(argv.begin(), "tool");
  return Args(static_cast<int>(argv.size()), argv.data(), kValueFlags,
              switches);
}

TEST(Args, FlagsAndPositionals) {
  const auto args =
      Parse({"--out", "file.csv", "input.csv", "--stride", "31"});
  EXPECT_EQ(args.GetString("--out", ""), "file.csv");
  EXPECT_EQ(args.GetSize("--stride", 1), 31u);
  ASSERT_EQ(args.Positional().size(), 1u);
  EXPECT_EQ(args.Positional()[0], "input.csv");
}

TEST(Args, DefaultsWhenAbsent) {
  const auto args = Parse({});
  EXPECT_EQ(args.GetString("--objective", "energy"), "energy");
  EXPECT_DOUBLE_EQ(args.GetDouble("--distance", 20.0), 20.0);
  EXPECT_EQ(args.GetInt("--packets", 300), 300);
  EXPECT_FALSE(args.Get("--out").has_value());
}

TEST(Args, Switches) {
  const auto args = Parse({"--verify", "--distance", "25"}, {"--verify"});
  EXPECT_TRUE(args.Has("--verify"));
  EXPECT_FALSE(args.Has("--quiet"));
  EXPECT_DOUBLE_EQ(args.GetDouble("--distance", 0.0), 25.0);
}

TEST(Args, MissingValueThrows) {
  EXPECT_THROW(Parse({"--out"}), std::invalid_argument);
}

TEST(Args, BadNumericValueThrows) {
  const auto args = Parse({"--distance", "12abc"});
  EXPECT_THROW((void)args.GetDouble("--distance", 0.0),
               std::invalid_argument);
  const auto args2 = Parse({"--packets", "1.5"});
  EXPECT_THROW((void)args2.GetInt("--packets", 0), std::invalid_argument);
}

TEST(Args, SwitchBeforeValueFlagNotConfused) {
  // A switch must not swallow the next token.
  const auto args = Parse({"--verify", "positional"}, {"--verify"});
  EXPECT_TRUE(args.Has("--verify"));
  ASSERT_EQ(args.Positional().size(), 1u);
}

TEST(Args, UnknownValueFlagThrows) {
  // Used to be accepted and silently ignored, default value and all.
  try {
    (void)Parse({"--distance", "25", "--capture-margin", "-1"});
    FAIL() << "unknown value flag accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--capture-margin"),
              std::string::npos)
        << e.what();
  }
}

TEST(Args, UnknownSwitchThrows) {
  // Trailing (no value to borrow) and mid-line (a value to borrow) alike.
  for (const std::vector<const char*>& argv :
       {std::vector<const char*>{"--verify", "--help"},
        std::vector<const char*>{"--help", "input.csv", "--verify"}}) {
    try {
      (void)Parse(argv, {"--verify"});
      FAIL() << "unknown switch accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--help"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Args, ListedFlagsParseAsBefore) {
  const auto args = Parse({"--packets", "12", "in.csv", "--verify", "--out",
                           "o.csv", "--distance", "-3.5"},
                          {"--verify"});
  EXPECT_EQ(args.GetPositiveInt("--packets", 1), 12);
  EXPECT_EQ(args.GetString("--out", ""), "o.csv");
  EXPECT_DOUBLE_EQ(args.GetDouble("--distance", 0.0), -3.5);
  EXPECT_TRUE(args.Has("--verify"));
  EXPECT_FALSE(args.Get("--stride").has_value());
  ASSERT_EQ(args.Positional().size(), 1u);
  EXPECT_EQ(args.Positional()[0], "in.csv");
  // A listed value flag still needs its value.
  EXPECT_THROW(Parse({"--stride"}), std::invalid_argument);
}

TEST(Args, ParsePositiveIntWholeStringOnly) {
  EXPECT_EQ(ParsePositiveInt("3", "packets"), 3);
  EXPECT_EQ(ParsePositiveInt("120", "packets"), 120);
  for (const char* bad : {"", "abc", "3x", "0", "-2", "1.5"}) {
    EXPECT_THROW((void)ParsePositiveInt(bad, "packets"),
                 std::invalid_argument)
        << "accepted '" << bad << "'";
  }
}

TEST(Args, ParseDoubleWholeFiniteStringOnly) {
  EXPECT_DOUBLE_EQ(ParseDouble("1.5", "tolerance"), 1.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-3e2", "tolerance"), -300.0);
  EXPECT_DOUBLE_EQ(ParseDouble("42", "tolerance"), 42.0);
  // Raw strtod/atof would accept the first three of these (trailing junk)
  // and the non-finite spellings; the validated parser throws on all.
  for (const char* bad : {"1.5x", "12abc", "7,", "", "abc", "nan", "inf",
                          "-inf"}) {
    EXPECT_THROW((void)ParseDouble(bad, "tolerance"), std::invalid_argument)
        << "accepted '" << bad << "'";
  }
  // strtod extensions the canonical grammar closes: leading/trailing
  // whitespace, hex floats, a leading '+', overflow to infinity.
  for (const char* bad : {" 1.5", "1.5 ", "\t2", "0x1p3", "0X2", "+1.5",
                          "1e999", "NaN", "INF", "infinity"}) {
    EXPECT_THROW((void)ParseDouble(bad, "tolerance"), std::invalid_argument)
        << "accepted '" << bad << "'";
  }
}

TEST(Args, ParseCanonicalDoubleSharedGrammar) {
  double out = -1.0;
  EXPECT_TRUE(ParseCanonicalDouble("2.25e-1", out));
  EXPECT_DOUBLE_EQ(out, 0.225);
  EXPECT_TRUE(ParseCanonicalDouble("-0.5", out));
  EXPECT_DOUBLE_EQ(out, -0.5);
  EXPECT_TRUE(ParseCanonicalDouble("1000000", out));
  EXPECT_DOUBLE_EQ(out, 1e6);

  // A failed parse must not touch `out`.
  out = 7.0;
  EXPECT_FALSE(ParseCanonicalDouble("nan", out));
  EXPECT_FALSE(ParseCanonicalDouble("inf", out));
  EXPECT_FALSE(ParseCanonicalDouble("0x1p3", out));
  EXPECT_FALSE(ParseCanonicalDouble(" 1", out));
  EXPECT_FALSE(ParseCanonicalDouble("1 ", out));
  EXPECT_FALSE(ParseCanonicalDouble("+2", out));
  EXPECT_FALSE(ParseCanonicalDouble("", out));
  EXPECT_FALSE(ParseCanonicalDouble("1e999", out));
  EXPECT_FALSE(ParseCanonicalDouble("--1", out));
  EXPECT_DOUBLE_EQ(out, 7.0);
}

TEST(Args, GetDoubleUsesCanonicalGrammar) {
  // Args::GetDouble used to go through raw stod and quietly accepted what
  // ParseDouble rejected; both now share ParseCanonicalDouble.
  for (const char* bad : {"inf", "nan", "0x1p3", " 1.5", "+2", "1e999"}) {
    const char* argv[] = {"tool", "--x", bad};
    const Args args(3, argv);
    EXPECT_THROW((void)args.GetDouble("--x", 0.0), std::invalid_argument)
        << "accepted '" << bad << "'";
  }
  const char* argv[] = {"tool", "--x", "-2.5e1"};
  const Args args(3, argv);
  EXPECT_DOUBLE_EQ(args.GetDouble("--x", 0.0), -25.0);
}

}  // namespace
}  // namespace wsnlink::util
