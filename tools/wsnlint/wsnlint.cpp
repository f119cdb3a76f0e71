// wsnlint — the repo's static analyzer (docs/STATIC_ANALYSIS.md): per-file
// determinism/portability rules plus cross-TU rules over src/.
//
// Usage:
//   wsnlint [--root DIR] [--fix] [--list-rules] [--inventory FILE] [PATH...]
//
// PATHs (files or directories, relative to --root) default to the full scan
// set: src bench examples tests tools. Every scanned file gets the per-file
// rules; the scanned files under src/ also form the cross-TU index. Exit
// status is 0 when clean, 1 when there are findings, 2 on usage or I/O
// errors. Findings print as `file:line:rule-id: message`, one per line,
// sorted — the same byte format tests/lint_test.cpp locks with a golden.
// `--inventory FILE` additionally writes the marker/allow-list inventory
// (with reasons) that CI publishes as a build artifact; use `-` for stdout.
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "runner.h"

namespace {

constexpr const char* kUsage =
    "usage: wsnlint [--root DIR] [--fix] [--list-rules] [--inventory FILE] "
    "[PATH...]\n";

}  // namespace

int main(int argc, char** argv) {
  wsnlint::Options options;
  bool list_rules = false;
  std::string inventory_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fix") {
      options.fix = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--root" || arg == "--inventory") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "wsnlint: missing value for %s\n%s",
                     arg.c_str(), kUsage);
        return 2;
      }
      std::string& value = arg == "--root" ? options.root : inventory_path;
      value = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "wsnlint: unknown flag %s\n%s", arg.c_str(),
                   kUsage);
      return 2;
    } else {
      options.paths.push_back(arg);
    }
  }

  if (list_rules) {
    for (const wsnlint::RuleInfo& rule : wsnlint::Rules()) {
      std::printf("%-20s %-9s %s\n", rule.id.c_str(),
                  rule.scope == wsnlint::Scope::kPerFile ? "per-file"
                                                         : "cross-TU",
                  rule.summary.c_str());
    }
    return 0;
  }

  try {
    const wsnlint::RunResult result = wsnlint::Run(options);
    std::fputs(wsnlint::FormatFindings(result.findings).c_str(), stdout);
    if (inventory_path == "-") {
      std::fputs(result.inventory.c_str(), stdout);
    } else if (!inventory_path.empty()) {
      std::ofstream out(inventory_path, std::ios::binary | std::ios::trunc);
      out << result.inventory;
      if (!out) {
        std::fprintf(stderr, "wsnlint: cannot write %s\n",
                     inventory_path.c_str());
        return 2;
      }
    }
    if (options.fix && result.files_fixed > 0) {
      std::fprintf(stderr, "wsnlint: fixed %d file(s)\n", result.files_fixed);
    }
    std::fprintf(stderr, "wsnlint: %d finding(s) in %d file(s)\n",
                 static_cast<int>(result.findings.size()),
                 result.files_scanned);
    return result.findings.empty() ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 2;
  }
}
