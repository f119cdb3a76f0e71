#include "rules.h"

#include <algorithm>
#include <cstddef>
#include <regex>
#include <utility>

namespace wsnlint {

const char* const kWallclockTokens =
    R"(\bstd::rand\b|\bsrand\s*\(|\brand\s*\(|\brandom_device\b)"
    R"(|\bsystem_clock\b|\bsteady_clock\b|\bhigh_resolution_clock\b)"
    R"(|\bgettimeofday\b|\btime\s*\(\s*(nullptr|NULL|0)\s*\))"
    R"(|\bclock\s*\(\s*\))";

namespace {

// Reports one finding per code line matching `re` (not per match: one
// message per line keeps the output readable and the golden stable).
void FlagLines(const SourceFile& file, const std::regex& re,
               const std::string& rule, const std::string& message,
               std::vector<Finding>* out) {
  for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
    if (std::regex_search(file.code_lines[i], re)) {
      out->push_back({file.path, static_cast<int>(i) + 1, rule, message});
    }
  }
}

bool IsPreprocessorLine(const std::string& line) {
  static const std::regex kPreprocessor(R"(^\s*#)");
  return std::regex_search(line, kPreprocessor);
}

// True when `line` has a `new` that takes ownership of heap storage.
// `operator new` overloads and placement new (`new (addr) T`, also
// `::new (...)`) manage storage explicitly and are not ownership bugs.
bool HasOwningNew(const std::string& line) {
  static const std::regex kNew(R"(\bnew\b)");
  static const std::regex kOperatorPrefix(R"(operator\s*$)");
  for (auto it = std::sregex_iterator(line.begin(), line.end(), kNew);
       it != std::sregex_iterator(); ++it) {
    const std::size_t pos = static_cast<std::size_t>(it->position());
    if (std::regex_search(line.substr(0, pos), kOperatorPrefix)) continue;
    std::size_t after = pos + 3;
    while (after < line.size() && line[after] == ' ') ++after;
    if (after < line.size() && line[after] == '(') continue;  // placement
    return true;
  }
  return false;
}

// --- R1: no wall-clock or ambient entropy in src/ ---------------------------

void CheckWallclock(const SourceFile& file, std::vector<Finding>* out) {
  if (!file.UnderSrc()) return;
  static const std::regex kForbidden(
      std::string("(") + kWallclockTokens +
      R"(|#\s*include\s*<(chrono|ctime|random)>))");
  FlagLines(file, kForbidden, "no-wallclock",
            "wall-clock/ambient entropy is forbidden in src/; draw from the "
            "seeded util::Rng lineage so runs replay bit-identically",
            out);
}

// --- R2: no unordered containers on output-writing paths --------------------

void CheckUnorderedOutput(const SourceFile& file, std::vector<Finding>* out) {
  if (!file.UnderSrc()) return;
  static const std::regex kOutputSignal(
      R"((#\s*include\s*"util/csv\.h"|#\s*include\s*"experiment/checkpoint\.h")"
      R"(|#\s*include\s*"trace/export\.h"|\bCsvWriter\b|\bCheckpointWriter\b)"
      R"(|\bSerializeSummaryRow\b|\bExportCsv\b))");
  if (!std::regex_search(file.scan.code, kOutputSignal)) return;
  static const std::regex kUnordered(R"(\bunordered_(map|set)\b)");
  FlagLines(file, kUnordered, "no-unordered-output",
            "unordered container in a file that writes CSV/trace/checkpoint "
            "output; iteration order is unspecified and would make emitted "
            "bytes depend on hashing — use std::map/std::vector",
            out);
}

// --- R3: numeric parsing goes through src/util ------------------------------

void CheckRawParse(const SourceFile& file, std::vector<Finding>* out) {
  if (file.UnderSrc("util/")) return;
  static const std::regex kRawParse(
      R"(\b(atoi|atof|atol|atoll|strtol|strtoul|strtoll|strtoull|strtod)"
      R"(|strtof|strtold|sscanf|stoi|stol|stoll|stoul|stoull|stof|stod|stold))"
      R"(\s*\()");
  FlagLines(file, kRawParse, "no-raw-parse",
            "raw numeric parsing outside src/util/; use util::Args accessors "
            "or util::ParsePositiveInt/ParseDouble, which reject trailing "
            "garbage instead of silently truncating",
            out);
}

// --- R4: header hygiene -----------------------------------------------------

void CheckHeaderHygiene(const SourceFile& file, std::vector<Finding>* out) {
  if (!file.IsHeader()) return;
  static const std::regex kPragmaOnce(R"(^\s*#\s*pragma\s+once\b)");
  int first_directive_line = 0;  // 1-based; 0 = none found
  bool pragma_first = false;
  for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
    if (IsPreprocessorLine(file.code_lines[i])) {
      first_directive_line = static_cast<int>(i) + 1;
      pragma_first = std::regex_search(file.code_lines[i], kPragmaOnce);
      break;
    }
  }
  if (!pragma_first) {
    out->push_back({file.path, first_directive_line == 0 ? 1
                                                        : first_directive_line,
                    "header-hygiene",
                    "header must start with #pragma once (before any other "
                    "preprocessor directive); run wsnlint --fix"});
  }
  static const std::regex kUsingNamespace(R"(^\s*using\s+namespace\b)");
  FlagLines(file, kUsingNamespace, "header-hygiene",
            "using-namespace at file scope in a header leaks into every "
            "includer; qualify names or alias them",
            out);
}

// --- R5: no floating-point ==/!= --------------------------------------------

void CheckFloatEq(const SourceFile& file, std::vector<Finding>* out) {
  // Token-level approximation: an ==/!= with a float literal on either side.
  // Comparing two double-typed variables is invisible to a scanner without
  // type info; the literal form is the one that actually shows up in
  // thresholds and golden predicates, and the one mutations introduce.
  static const std::regex kFloatCmp(
      R"((==|!=)\s*[+-]?(\d+\.\d*|\.\d+|\d+[eE][+-]?\d+))"
      R"(|(\d+\.\d*|\.\d+|\d+[eE][+-]?\d+)[fFlL]?\s*(==|!=))");
  FlagLines(file, kFloatCmp, "no-float-eq",
            "floating-point ==/!= against a literal; rounding makes exact "
            "equality fragile — compare with an explicit tolerance or "
            "restructure to integers",
            out);
}

// --- R6: no naked new/delete in src/ ----------------------------------------

void CheckNakedNew(const SourceFile& file, std::vector<Finding>* out) {
  if (!file.UnderSrc()) return;
  static const std::regex kDelete(R"(\bdelete\b)");
  // `= delete`d functions and `operator delete` overloads are fine.
  static const std::regex kDeletedFnPrefix(R"((=\s*|operator\s*)$)");
  for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& line = file.code_lines[i];
    if (IsPreprocessorLine(line)) continue;  // #include <new>
    bool flagged = HasOwningNew(line);
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kDelete);
         !flagged && it != std::sregex_iterator(); ++it) {
      const std::size_t pos = static_cast<std::size_t>(it->position());
      flagged = !std::regex_search(line.substr(0, pos), kDeletedFnPrefix);
    }
    if (flagged) {
      out->push_back({file.path, static_cast<int>(i) + 1, "no-naked-new",
                      "naked new/delete in src/; own memory with "
                      "std::unique_ptr/containers so no path can leak"});
    }
  }
}

// --- R7: no heap allocation in files marked hot-path ------------------------

void CheckHotAlloc(const SourceFile& file, std::vector<Finding>* out) {
  // Opt-in: a comment containing the `wsnlint:hot-path` marker declares the
  // file part of the per-config inner loop, where the zero-alloc sweep
  // invariant holds (perf_sweep --check measures it dynamically; this rule
  // makes it visible at review time). In marked files, tokens that
  // unconditionally hit the heap allocator are findings. Placement new
  // (`new (addr) T`) constructs into caller-owned storage — the arena's
  // whole point — and stays exempt, as do preprocessor lines.
  if (!file.hot_path) return;
  for (std::size_t i = 0; i < file.code_lines.size(); ++i) {
    const std::string& line = file.code_lines[i];
    if (IsPreprocessorLine(line) || !AllocatesOnHeap(line)) continue;
    out->push_back({file.path, static_cast<int>(i) + 1, "no-hot-alloc",
                    "heap allocation in a wsnlint:hot-path file; the "
                    "per-config inner loop runs allocation-free — build "
                    "into arena/scratch storage or hoist the allocation "
                    "to setup"});
  }
}

/// The first line at or below `line` that holds code (1-based).
int CodeLineFrom(const SourceFile& file, int line) {
  for (std::size_t i = static_cast<std::size_t>(line) - 1;
       i < file.code_lines.size(); ++i) {
    if (file.code_lines[i].find_first_not_of(" \t\r") != std::string::npos) {
      return static_cast<int>(i) + 1;
    }
  }
  return 0;
}

}  // namespace

const std::vector<RuleInfo>& Rules() {
  constexpr Scope kFile = Scope::kPerFile;
  constexpr Scope kCross = Scope::kCrossTu;
  static const std::vector<RuleInfo> kRules = {
      {"no-wallclock", kFile, "wsnlint",
       "src/ must not read wall clocks or ambient entropy (std::rand, "
       "random_device, <chrono>); all randomness flows from util::Rng"},
      {"no-unordered-output", kFile, "wsnlint",
       "files that write CSV/trace/checkpoint output must not use "
       "unordered_map/unordered_set (iteration order is unspecified)"},
      {"no-raw-parse", kFile, "wsnlint",
       "atoi/strtol/std::stoi-family parsing is confined to src/util/; "
       "everything else uses the validated util parsers"},
      {"header-hygiene", kFile, "wsnlint",
       "headers start with #pragma once and never use using-namespace at "
       "file scope"},
      {"no-float-eq", kFile, "wsnlint",
       "no ==/!= against floating-point literals; compare with a tolerance"},
      {"no-naked-new", kFile, "wsnlint",
       "no naked new/delete in src/; use owning types"},
      {"no-hot-alloc", kFile, "wsnlint",
       "files carrying a wsnlint:hot-path marker comment must not allocate "
       "on the heap (new/make_unique/make_shared/malloc family); hot loops "
       "build into arena or scratch storage"},
      {"serdes-complete", kCross, "wsnstatic",
       "every field of a struct registered via wsnstatic:serdes(Struct, "
       "WriteFn, ReadFn) is written by WriteFn and read back by ReadFn"},
      {"hot-path-transitive", kCross, "wsnstatic",
       "no heap allocation or wall-clock/entropy reads in functions "
       "reachable from wsnlint:hot-path roots through the cross-TU call "
       "graph"},
      {"lp-isolation", kCross, "wsnstatic",
       "no unjustified mutable static state (shared across threads) in "
       "files reachable from the worker pool, the sweep workers, or serve/ "
       "handlers"},
      {"layer-dag", kCross, "wsnstatic",
       "quoted includes respect the layer order util < sim/trace < "
       "phy/channel < mac/core < link < app < node < metrics < "
       "experiment/validate < serve"},
      {"unreached", kCross, "wsnstatic",
       "every function defined in src/ is reachable from the main of a "
       "binary under examples/, bench/, perfbench/ or tools/"},
  };
  return kRules;
}

bool IsKnownRule(const std::string& prefix, const std::string& id) {
  const auto& rules = Rules();
  return std::any_of(rules.begin(), rules.end(), [&](const RuleInfo& r) {
    return r.id == id && r.prefix == prefix;
  });
}

void ApplyAllows(const std::string& prefix, const SourceFile& file,
                 std::vector<Finding> raw, std::vector<Finding>* out,
                 const std::string& idle_rule) {
  struct Allow {
    int line = 0;
    std::string rule;
    bool has_reason = false;
    bool used = false;
  };
  std::vector<Allow> allows;
  for (const Marker& marker : ParseMarkers(prefix, file.scan.comments)) {
    if (marker.verb != "allow") continue;
    for (const std::string& id : marker.ids) {
      if (!IsKnownRule(prefix, id)) {
        out->push_back({file.path, marker.line, "allow-directive",
                        "unknown rule id '" + id + "' in " + prefix +
                            ":allow"});
        continue;
      }
      if (!marker.has_reason) {
        out->push_back({file.path, marker.line, "allow-directive",
                        prefix + ":allow(" + id +
                            ") needs a one-line justification after ':'"});
      }
      allows.push_back({marker.line, id, marker.has_reason, false});
    }
  }
  for (Finding& finding : raw) {
    bool suppressed = false;
    for (Allow& allow : allows) {
      if (allow.rule == finding.rule &&
          (allow.rule != "unreached" ||
           CodeLineFrom(file, allow.line) == finding.line)) {
        allow.used = true;
        suppressed = true;
      }
    }
    if (!suppressed) out->push_back(std::move(finding));
  }
  for (const Allow& allow : allows) {
    if (!allow.used && allow.has_reason && allow.rule != idle_rule) {
      out->push_back({file.path, allow.line, "allow-directive",
                      "stale " + prefix + ":allow(" + allow.rule +
                          "): it suppresses nothing; remove it"});
    }
  }
}

bool AllocatesOnHeap(const std::string& code_line) {
  static const std::regex kHeapCall(
      R"(\bmake_(unique|shared)\s*<|\b(malloc|calloc|realloc|strdup)\s*\()");
  return std::regex_search(code_line, kHeapCall) || HasOwningNew(code_line);
}

std::vector<Finding> CheckFile(const SourceFile& file) {
  std::vector<Finding> raw;
  CheckWallclock(file, &raw);
  CheckUnorderedOutput(file, &raw);
  CheckRawParse(file, &raw);
  CheckHeaderHygiene(file, &raw);
  CheckFloatEq(file, &raw);
  CheckNakedNew(file, &raw);
  CheckHotAlloc(file, &raw);
  std::vector<Finding> kept;
  ApplyAllows("wsnlint", file, std::move(raw), &kept);
  return kept;
}

std::vector<Finding> CheckSource(const std::string& path,
                                 const std::string& content) {
  return CheckFile(ScanFile(path, content));
}

std::string ApplyFixes(const std::string& path, const std::string& content) {
  const SourceFile file = ScanFile(path, content);
  if (!file.IsHeader()) return content;
  const std::vector<std::string>& code_lines = file.code_lines;
  static const std::regex kPragmaOnce(R"(^\s*#\s*pragma\s+once\b)");
  for (const std::string& line : code_lines) {
    if (std::regex_search(line, kPragmaOnce)) return content;  // already fixed
  }
  // Insert after the leading comment/blank block so file-header prose stays
  // on top, matching the style of every existing header in the repo.
  const std::vector<std::string> raw_lines = SplitLines(content);
  std::size_t insert_at = 0;
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    const bool code_blank =
        i >= code_lines.size() ||
        code_lines[i].find_first_not_of(" \t\r") == std::string::npos;
    const bool raw_blank =
        raw_lines[i].find_first_not_of(" \t\r") == std::string::npos;
    if (code_blank && !raw_blank) {
      insert_at = i + 1;  // comment line: keep scanning
    } else if (raw_blank) {
      continue;  // blank line inside/after the comment block
    } else {
      break;  // first real code line
    }
  }
  std::string fixed;
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    if (i == insert_at) {
      fixed += "#pragma once\n";
      // Keep exactly one blank line between the pragma and what follows.
      const bool next_blank =
          raw_lines[i].find_first_not_of(" \t\r") == std::string::npos;
      if (!next_blank) fixed += "\n";
    }
    fixed += raw_lines[i];
    fixed += "\n";
  }
  if (insert_at >= raw_lines.size()) fixed += "#pragma once\n";
  return fixed;
}

}  // namespace wsnlint
