// Filesystem driver for wsnlint: walks the requested directories, reads and
// scans each C++ source file once, runs the per-file rules on every file
// and the cross-TU rules on the files under src/. Kept separate from the
// rules so tests can analyze in-memory file sets without touching disk and
// so the CLI stays a thin shell.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "rules.h"

namespace wsnlint {

struct Options {
  // Directory all reported paths are made relative to (and that `paths` are
  // resolved against). Defaults to the current working directory.
  std::string root = ".";
  // Files or directories to analyze, relative to `root`. Directories are
  // walked recursively for .h/.cpp/.cc files. Empty means the default scan
  // set: src, bench, examples, tests, tools.
  std::vector<std::string> paths;
  // Apply mechanical fixes in place (currently: missing #pragma once).
  bool fix = false;
};

struct RunResult {
  std::vector<Finding> findings;
  int files_scanned = 0;
  int files_fixed = 0;
  // Sorted marker inventory of the indexed files (wsnstatic:* plus
  // wsnlint:allow/hot-path), one per line with reasons — CI publishes this
  // as the review artifact.
  std::string inventory;
};

/// True if `relative_path` is excluded from scanning: the checked-in
/// expected outputs (tests/golden/), the rule fixtures, which contain
/// violations on purpose (tests/lint_fixtures/), version-control internals
/// (.git/) and build trees at the root (build*/). Whole path components
/// match, never substrings.
[[nodiscard]] bool IsExcluded(const std::string& relative_path);

/// Analyzes an in-memory file set of (path, content) pairs.
[[nodiscard]] RunResult Check(
    std::vector<std::pair<std::string, std::string>> sources);

/// Analyzes (and with `options.fix` first rewrites) every matching file.
/// Throws std::runtime_error when a requested path does not exist.
[[nodiscard]] RunResult Run(const Options& options);

}  // namespace wsnlint
