#include "source.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <regex>
#include <sstream>
#include <tuple>
#include <utility>

namespace wsnlint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// True when the raw-string 'R' at `pos` carries one of the encoding
// prefixes (u8R, uR, UR, LR) rather than being the tail of an ordinary
// identifier like FooBaR. Returns the index of the prefix's first char in
// `prefix_start` so the caller can blank the whole token.
bool RawStringPrefixAt(const std::string& content, std::size_t pos,
                       std::size_t& prefix_start) {
  prefix_start = pos;
  if (pos == 0) return true;  // bare R" at start of file
  const char before = content[pos - 1];
  if (!IsIdentChar(before)) return true;  // bare R"
  // u8R"
  if (before == '8' && pos >= 2 && content[pos - 2] == 'u' &&
      (pos == 2 || !IsIdentChar(content[pos - 3]))) {
    prefix_start = pos - 2;
    return true;
  }
  // uR" / UR" / LR"
  if ((before == 'u' || before == 'U' || before == 'L') &&
      (pos == 1 || !IsIdentChar(content[pos - 2]))) {
    prefix_start = pos - 1;
    return true;
  }
  return false;
}

}  // namespace

ScanResult ScanSource(const std::string& content) {
  ScanResult result;
  result.code = content;
  std::string& code = result.code;

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };

  State state = State::kCode;
  int line = 1;
  bool line_is_preprocessor = false;  // current line starts with '#'
  bool line_seen_code = false;        // any non-ws code char on this line yet
  std::string raw_delim;              // delimiter of the active raw string
  Comment current;                    // comment being accumulated

  auto flush_comment = [&]() {
    result.comments.push_back(current);
    current = Comment{};
  };

  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';

    if (c == '\n') {
      ++line;
      if (state == State::kLineComment) {
        flush_comment();
        state = State::kCode;
      } else if (state == State::kBlockComment) {
        current.text += '\n';
      } else if (state == State::kString || state == State::kChar) {
        // Unterminated literal at end of line: recover rather than eat the
        // rest of the file (a syntax error the compiler will report anyway).
        state = State::kCode;
      }
      line_is_preprocessor = false;
      line_seen_code = false;
      continue;
    }

    switch (state) {
      case State::kCode: {
        std::size_t prefix_start = 0;
        if (!line_seen_code && !std::isspace(static_cast<unsigned char>(c))) {
          line_seen_code = true;
          line_is_preprocessor = (c == '#');
        }
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          current.line = line;
          code[i] = ' ';
          code[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          current.line = line;
          code[i] = ' ';
          code[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   RawStringPrefixAt(content, i, prefix_start)) {
          // [prefix]R"delim( ... )delim" — delimiters are at most 16 chars
          // and never contain parens, spaces or newlines; stop the scan at
          // any of those so malformed source cannot desynchronise lines.
          raw_delim.clear();
          std::size_t j = i + 2;
          while (j < content.size() && content[j] != '(' &&
                 content[j] != '\n' && content[j] != ' ' &&
                 raw_delim.size() < 16) {
            raw_delim += content[j];
            ++j;
          }
          if (j < content.size() && content[j] == '(') {
            state = State::kRawString;
            for (std::size_t k = prefix_start; k <= j; ++k) code[k] = ' ';
            i = j;  // positioned at '(' (loop ++ moves past it)
          }
          // No '(' found: not a raw string after all; leave it as code.
        } else if (c == '"') {
          if (!line_is_preprocessor) {
            state = State::kString;
            code[i] = ' ';
          }
          // On a preprocessor line (#include "path") the quoted part stays
          // visible: include-based rules match on it.
        } else if (c == '\'') {
          // A ' preceded by an identifier character is a digit separator
          // (1'000'000) or a literal suffix position, not a char literal.
          if (i == 0 || !IsIdentChar(content[i - 1])) {
            state = State::kChar;
            code[i] = ' ';
          }
        }
        break;
      }
      case State::kLineComment:
        current.text += c;
        code[i] = ' ';
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          flush_comment();
          state = State::kCode;
          code[i] = ' ';
          code[i + 1] = ' ';
          ++i;
        } else {
          current.text += c;
          code[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0' && next != '\n') {
          code[i] = ' ';
          code[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          code[i] = ' ';
          state = State::kCode;
        } else {
          code[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0' && next != '\n') {
          code[i] = ' ';
          code[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          code[i] = ' ';
          state = State::kCode;
        } else {
          code[i] = ' ';
        }
        break;
      case State::kRawString: {
        // Look for )delim"
        if (c == ')' &&
            content.compare(i + 1, raw_delim.size(), raw_delim) == 0 &&
            i + 1 + raw_delim.size() < content.size() &&
            content[i + 1 + raw_delim.size()] == '"') {
          const std::size_t end = i + 1 + raw_delim.size();
          for (std::size_t k = i; k <= end; ++k) code[k] = ' ';
          // The close marker never spans lines (delimiters exclude '\n').
          i = end;
          state = State::kCode;
        } else if (c != '\n') {
          code[i] = ' ';
        }
        break;
      }
    }
  }
  if (state == State::kLineComment || state == State::kBlockComment) {
    flush_comment();
  }
  return result;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) lines.push_back(current);
  return lines;
}


std::string FormatFindings(std::vector<Finding> findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  std::string out;
  for (const Finding& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ":" + f.rule + ": " +
           f.message + "\n";
  }
  return out;
}

namespace {

std::string Trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  const auto end = text.find_last_not_of(" \t");
  return text.substr(begin, end - begin + 1);
}

std::vector<std::string> SplitIds(const std::string& ids) {
  std::vector<std::string> out;
  std::stringstream ss(ids);
  std::string id;
  while (std::getline(ss, id, ',')) {
    id = Trim(id);
    if (!id.empty()) out.push_back(id);
  }
  return out;
}

}  // namespace

std::vector<Marker> ParseMarkers(const std::string& prefix,
                                 const std::vector<Comment>& comments) {
  std::vector<Marker> markers;
  // <prefix>:<verb>            (verb-only, e.g. hot-path)
  // <prefix>:<verb>(ids)       (exemption without reason — reported by caller)
  // <prefix>:<verb>(ids): why  (full form)
  // The directive opens its comment; prose that mentions one is not one.
  const std::regex re("^\\s*" + prefix +
                      R"(:([A-Za-z][A-Za-z0-9\-]*))"
                      R"((\(\s*([A-Za-z0-9_, \-]+?)\s*\))?)"
                      R"(\s*(:\s*(\S.*))?)");
  for (const Comment& comment : comments) {
    std::smatch match;
    if (!std::regex_search(comment.text, match, re)) continue;
    Marker marker;
    marker.line = comment.line;
    marker.verb = match[1].str();
    if (match[2].matched) marker.ids = SplitIds(match[3].str());
    marker.has_reason = match[4].matched;
    if (marker.has_reason) marker.reason = Trim(match[5].str());
    markers.push_back(std::move(marker));
  }
  return markers;
}

bool SourceFile::UnderSrc(const std::string& subdir) const {
  return path.rfind("src/" + subdir, 0) == 0;
}

bool SourceFile::IsHeader() const {
  return path.size() >= 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

SourceFile ScanFile(std::string path, std::string content) {
  SourceFile file;
  file.path = std::move(path);
  file.content = std::move(content);
  file.scan = ScanSource(file.content);
  file.code_lines = SplitLines(file.scan.code);
  for (const Marker& marker : ParseMarkers("wsnlint", file.scan.comments)) {
    if (marker.verb == "hot-path") file.hot_path = true;
  }
  return file;
}

}  // namespace wsnlint
