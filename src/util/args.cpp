#include "util/args.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace wsnlink::util {

namespace {

bool Contains(const std::vector<std::string>& list, const std::string& item) {
  return std::find(list.begin(), list.end(), item) != list.end();
}

}  // namespace

Args::Args(int argc, const char* const* argv,
           const std::vector<std::string>& value_flags,
           const std::vector<std::string>& switches) {
  Parse(argc, argv, &value_flags, switches);
}

Args::Args(int argc, const char* const* argv) {
  Parse(argc, argv, nullptr, {});
}

void Args::Parse(int argc, const char* const* argv,
                 const std::vector<std::string>* value_flags,
                 const std::vector<std::string>& switches) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    if (Contains(switches, arg)) {
      switches_given_.push_back(arg);
      continue;
    }
    if (value_flags != nullptr && !Contains(*value_flags, arg)) {
      throw std::invalid_argument("unknown flag " + arg);
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + arg);
    }
    const std::string value = argv[i + 1];
    if (value.rfind("--", 0) == 0) {
      // `--flag --other` means --flag's value is missing, not that the
      // next flag is its value.
      throw std::invalid_argument("missing value for " + arg);
    }
    if (values_.count(arg) != 0) {
      throw std::invalid_argument("duplicate flag " + arg);
    }
    values_[arg] = value;
    ++i;
  }
}

bool Args::Has(const std::string& flag) const {
  return Contains(switches_given_, flag);
}

Args ParseArgsOrExit(int argc, const char* const* argv,
                     const std::vector<std::string>& value_flags,
                     const std::vector<std::string>& switches) {
  try {
    return Args(argc, argv, value_flags, switches);
  } catch (const std::invalid_argument& e) {
    std::string program = argc > 0 ? argv[0] : "wsnlink";
    program.erase(0, program.find_last_of('/') + 1);
    std::fprintf(stderr, "%s: %s\n", program.c_str(), e.what());
    std::exit(2);
  }
}

std::optional<std::string> Args::Get(const std::string& flag) const {
  const auto it = values_.find(flag);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Args::GetString(const std::string& flag,
                            const std::string& fallback) const {
  return Get(flag).value_or(fallback);
}

double Args::GetDouble(const std::string& flag, double fallback) const {
  const auto value = Get(flag);
  if (!value) return fallback;
  double parsed = 0.0;
  if (!ParseCanonicalDouble(*value, parsed)) {
    throw std::invalid_argument("bad numeric value for " + flag + ": " + *value);
  }
  return parsed;
}

int Args::GetInt(const std::string& flag, int fallback) const {
  const auto value = Get(flag);
  if (!value) return fallback;
  std::size_t consumed = 0;
  const int parsed = std::stoi(*value, &consumed);
  if (consumed != value->size()) {
    throw std::invalid_argument("bad integer value for " + flag + ": " + *value);
  }
  return parsed;
}

int Args::GetPositiveInt(const std::string& flag, int fallback) const {
  const auto value = Get(flag);
  if (!value) return fallback;
  try {
    return ParsePositiveInt(*value, flag);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("bad positive integer for " + flag + ": " +
                                *value);
  }
}

int ParsePositiveInt(const std::string& value, const std::string& what) {
  std::size_t consumed = 0;
  int parsed = 0;
  try {
    parsed = std::stoi(value, &consumed);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad positive integer for " + what + ": '" +
                                value + "'");
  }
  if (consumed != value.size() || parsed < 1) {
    throw std::invalid_argument("bad positive integer for " + what + ": '" +
                                value + "'");
  }
  return parsed;
}

bool ParseCanonicalDouble(std::string_view text, double& out) noexcept {
  if (text.empty()) return false;
  // Character filter first: anything outside the plain decimal/scientific
  // alphabet is rejected before from_chars gets a say. This closes the
  // strtod-family extensions in one place — leading whitespace, hex floats
  // ("0x1p3") and the "inf"/"nan" spellings all contain a foreign byte.
  for (const char c : text) {
    const bool allowed = (c >= '0' && c <= '9') || c == '.' || c == 'e' ||
                         c == 'E' || c == '+' || c == '-';
    if (!allowed) return false;
  }
  double parsed{};
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, parsed);
  if (ec != std::errc() || ptr != end) return false;
  // from_chars reports overflow via errc::result_out_of_range, so this is
  // belt and braces; it documents the finite-only contract either way.
  if (!std::isfinite(parsed)) return false;
  out = parsed;
  return true;
}

double ParseDouble(const std::string& value, const std::string& what) {
  double parsed = 0.0;
  if (!ParseCanonicalDouble(value, parsed)) {
    throw std::invalid_argument("bad number for " + what + ": '" + value +
                                "'");
  }
  return parsed;
}

std::size_t Args::GetSize(const std::string& flag, std::size_t fallback) const {
  const auto value = Get(flag);
  if (!value) return fallback;
  if (!value->empty() && value->front() == '-') {
    // stoull would silently wrap a negative value around to a huge size.
    throw std::invalid_argument("bad size value for " + flag + ": " + *value);
  }
  std::size_t consumed = 0;
  const unsigned long long parsed = std::stoull(*value, &consumed);
  if (consumed != value->size()) {
    throw std::invalid_argument("bad size value for " + flag + ": " + *value);
  }
  return static_cast<std::size_t>(parsed);
}

}  // namespace wsnlink::util
