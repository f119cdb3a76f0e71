// Lexical layer of wsnlint: turns a C++ source file into a "code view"
// where comment and string-literal contents are blanked out (replaced by
// spaces, preserving line/column positions) so rule regexes and the
// structural parser never match text inside comments or literals. Comments
// are collected separately so the marker directives (allow, transient,
// hot-path, ...) can be parsed out of them.
//
// This is a token-level scanner, not a parser: it understands //, /* */,
// "..." with escapes, '...' char literals, digit separators (1'000'000),
// and raw strings R"delim(...)delim" including the encoding-prefixed forms
// u8R/uR/UR/LR — enough to be exact about what is code and what is not,
// which is all the rules need.
//
// A marker is a comment of the form
//   <prefix>:<verb>(<id>[, <id>...]): one-line justification
// with <prefix> one of wsnlint/wsnstatic, e.g. an allow(no-wallclock) with
// a one-line reason, or a transient(digest) naming a field that is derived
// on load rather than persisted. (Spelled indirectly here so the analyzer
// does not read this paragraph as a live directive.)
#pragma once

#include <string>
#include <vector>

namespace wsnlint {

/// One comment extracted from the source, with the 1-based line where it
/// starts. Block comments spanning multiple lines appear once, at their
/// starting line, with newlines preserved in `text`.
struct Comment {
  int line = 0;
  std::string text;  // contents without the // or /* */ markers
};

/// Result of scanning one file.
struct ScanResult {
  // Same length as the input; comments and string/char-literal contents are
  // replaced by spaces (newlines kept) so byte offsets and line numbers are
  // identical to the original file. Quoted include paths on preprocessor
  // lines are kept verbatim: rules need to see `#include "util/csv.h"`.
  std::string code;
  std::vector<Comment> comments;
};

/// Scans `content` (the raw bytes of a source file).
[[nodiscard]] ScanResult ScanSource(const std::string& content);

/// Splits text into lines (without trailing '\n'). A trailing newline does
/// not produce an extra empty line.
[[nodiscard]] std::vector<std::string> SplitLines(const std::string& text);

/// One analysis finding. `file` is the path as given to the tool (normally
/// repo-relative), `line` is 1-based.
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;  // rule id, e.g. "no-wallclock"
  std::string message;
};

/// Formats findings one per line as `file:line:rule-id: message`, sorted by
/// (file, line, rule, message). Byte-stable: the golden test compares this.
[[nodiscard]] std::string FormatFindings(std::vector<Finding> findings);

/// One parsed marker directive. `ids` holds the comma-separated arguments
/// with surrounding spaces trimmed; empty arguments are dropped.
struct Marker {
  int line = 0;       // 1-based line of the enclosing comment
  std::string verb;   // e.g. "allow", "transient", "hot-path"
  std::vector<std::string> ids;
  bool has_reason = false;
  std::string reason;  // empty when has_reason is false
};

/// Extracts every `<prefix>:<verb>(...)` marker from `comments`. Verb-only
/// markers without an argument list (e.g. `wsnlint:hot-path`) are returned
/// with empty `ids` and no reason requirement implied — callers decide which
/// verbs demand justification.
[[nodiscard]] std::vector<Marker> ParseMarkers(
    const std::string& prefix, const std::vector<Comment>& comments);

/// One quoted include directive (`#include "dir/file.h"`).
struct Include {
  std::string target;  // include path as written, '/'-separated
  int line = 0;        // 1-based
};

/// One scanned source file: read and scanned once, then shared by the
/// per-file rules and (for files under src/) the cross-TU index.
struct SourceFile {
  std::string path;  // relative to the analysis root, '/'-separated
  std::string content;
  ScanResult scan;
  std::vector<std::string> code_lines;  // SplitLines(scan.code)
  bool hot_path = false;                // carries a wsnlint:hot-path marker
  // Filled by BuildIndex only, for indexed (src/) files.
  std::vector<Marker> markers;  // wsnstatic:* directives
  std::vector<Include> includes;

  /// True when the file sits under `src/<subdir>`. The single definition of
  /// "in the simulator tree": src/-only rules, the raw-parse exemption for
  /// src/util/, the cross-TU index scope and the layer of a file.
  [[nodiscard]] bool UnderSrc(const std::string& subdir = "") const;
  [[nodiscard]] bool IsHeader() const;
};

/// Scans `content` into a SourceFile named `path`.
[[nodiscard]] SourceFile ScanFile(std::string path, std::string content);

}  // namespace wsnlint
