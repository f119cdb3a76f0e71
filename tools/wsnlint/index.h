// Cross-translation-unit structural index for the cross-TU rule families.
//
// The per-file rules are token checks; the cross-TU families need
// *structure*: which classes exist, what data members they declare, which
// functions are defined where (including out-of-line `Class::Method`
// bodies), what each body calls, and what each file includes. This header
// defines that index; index.cpp builds it from the blanked code view
// produced by ScanSource, with a brace/paren-matching statement walker —
// still no libclang, so the analyzer builds anywhere the simulator does.
//
// The parse is deliberately conservative and convention-driven (the repo is
// clang-format'd Google style): depth-1 member declarations, functions
// recognised by `head(...) {` shape, calls matched by unqualified name.
// Over-approximation is fine — every consumer treats a match as "possibly
// the same entity" and errs toward checking more, never less.
#pragma once

#include <string>
#include <vector>

#include "source.h"

namespace wsnlint {

/// One data member declaration. Only per-instance mutable state is
/// recorded: `static`, `const`, `mutable`, and reference members are
/// skipped (they cannot or need not round-trip through a serdes pair).
struct Member {
  std::string name;
  int line = 0;
};

/// One class/struct declaration (nested types get their own entry).
struct ClassInfo {
  std::string name;  // unqualified
  std::string file;
  int line = 0;
  std::vector<Member> members;
};

/// One function *definition* (a body was found).
struct FunctionInfo {
  std::string name;        // unqualified, e.g. "Transmit"
  std::string class_name;  // enclosing/qualifying class; "" = free function
  std::string file;
  int line = 0;                     // 1-based line of the body's open brace
  std::size_t body_begin = 0;       // offsets into the file's blanked code
  std::size_t body_end = 0;         // [begin, end) excludes the braces
  std::vector<std::string> calls;   // unqualified callee names, sorted+deduped
};

/// The whole-tree index. Vectors are sorted (files by path, classes by
/// (name, file), functions by (class_name, name, file, line)) so every
/// traversal — and therefore every report — is deterministic.
struct Index {
  std::vector<SourceFile> files;
  std::vector<ClassInfo> classes;
  std::vector<FunctionInfo> functions;

  [[nodiscard]] const SourceFile* FileByPath(const std::string& path) const;
  /// All classes with the given unqualified name.
  [[nodiscard]] std::vector<const ClassInfo*> ClassesNamed(
      const std::string& name) const;
  /// All function definitions with the given unqualified name.
  [[nodiscard]] std::vector<const FunctionInfo*> FunctionsNamed(
      const std::string& name) const;
  /// 1-based line of byte `offset` within `file`'s code view.
  [[nodiscard]] static int LineOf(const SourceFile& file, std::size_t offset);
};

/// Builds the index from `files` (sorted by path) and fills each file's
/// `markers` and `includes`.
[[nodiscard]] Index BuildIndex(std::vector<SourceFile> files);

}  // namespace wsnlint
