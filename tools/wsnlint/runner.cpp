#include "runner.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

namespace wsnlint {
namespace {

namespace fs = std::filesystem;

bool HasSourceExtension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cpp" || ext == ".cc";
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("wsnlint: cannot read " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// '/'-separated path relative to root, for stable cross-platform output.
std::string RelativePath(const fs::path& path, const fs::path& root) {
  return fs::relative(path, root).generic_string();
}

void Append(std::vector<Finding> findings, std::vector<Finding>* out) {
  out->insert(out->end(), std::make_move_iterator(findings.begin()),
              std::make_move_iterator(findings.end()));
}

std::string JoinIds(const std::vector<std::string>& ids) {
  std::string out;
  for (const std::string& id : ids) {
    if (!out.empty()) out += ", ";
    out += id;
  }
  return out;
}

/// One line per marker directive, with the justification — the reviewable
/// allow-list inventory. Covers both marker spellings, so a PR diff of the
/// artifact shows every new escape in one place.
std::string BuildInventory(const Index& index) {
  std::vector<std::string> lines;
  for (const SourceFile& file : index.files) {
    for (const Marker& marker : file.markers) {
      lines.push_back(file.path + ":" + std::to_string(marker.line) +
                      ": wsnstatic:" + marker.verb + "(" +
                      JoinIds(marker.ids) + ")" +
                      (marker.has_reason ? ": " + marker.reason : ""));
    }
    for (const Marker& marker : ParseMarkers("wsnlint", file.scan.comments)) {
      // Appended piecewise: GCC 12 reports a false -Wrestrict overlap on
      // `"literal" + std::string&&`.
      std::string line = file.path + ":" + std::to_string(marker.line) +
                         ": wsnlint:" + marker.verb;
      if (!marker.ids.empty()) {
        line.append("(").append(JoinIds(marker.ids)).append(")");
      }
      if (marker.has_reason) line.append(": ").append(marker.reason);
      lines.push_back(std::move(line));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace

bool IsExcluded(const std::string& relative_path) {
  static const std::vector<std::string> kExcludedDirs = {
      "tests/golden/",         // checked-in expected outputs, not code
      "tests/lint_fixtures/",  // violation corpus for the golden test
      ".git/",
  };
  for (const std::string& dir : kExcludedDirs) {
    if (relative_path.rfind(dir, 0) == 0) return true;
  }
  // Out-of-source build trees checked out at the root (build/, build-sa/).
  return relative_path.rfind("build", 0) == 0 &&
         relative_path.find('/') != std::string::npos;
}

RunResult Check(std::vector<std::pair<std::string, std::string>> sources) {
  std::sort(sources.begin(), sources.end());
  RunResult result;
  result.files_scanned = static_cast<int>(sources.size());
  std::vector<SourceFile> indexed;
  for (auto& [path, content] : sources) {
    SourceFile file = ScanFile(std::move(path), std::move(content));
    Append(CheckFile(file), &result.findings);
    if (file.path.rfind("tests/", 0) != 0) indexed.push_back(std::move(file));
  }
  const Index index = BuildIndex(std::move(indexed));
  Append(CheckIndex(index), &result.findings);
  result.inventory = BuildInventory(index);
  return result;
}

RunResult Run(const Options& options) {
  const fs::path root = fs::absolute(options.root);
  std::vector<std::string> roots = options.paths;
  if (roots.empty()) {
    roots = {"src", "bench", "examples", "perfbench", "tests", "tools"};
  }

  std::vector<fs::path> files;
  for (const std::string& entry : roots) {
    const fs::path path = root / entry;
    if (fs::is_regular_file(path)) {
      files.push_back(path);
    } else if (fs::is_directory(path)) {
      for (const auto& item : fs::recursive_directory_iterator(path)) {
        if (item.is_regular_file() && HasSourceExtension(item.path())) {
          files.push_back(item.path());
        }
      }
    } else {
      throw std::runtime_error("wsnlint: no such file or directory: " +
                               path.string());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<std::pair<std::string, std::string>> sources;
  int files_fixed = 0;
  for (const fs::path& file : files) {
    std::string rel = RelativePath(file, root);
    if (IsExcluded(rel)) continue;
    std::string content = ReadFile(file);
    if (options.fix) {
      std::string fixed = ApplyFixes(rel, content);
      if (fixed != content) {
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        out << fixed;
        if (!out) {
          throw std::runtime_error("wsnlint: cannot write " + file.string());
        }
        content = std::move(fixed);
        ++files_fixed;
      }
    }
    sources.emplace_back(std::move(rel), std::move(content));
  }
  RunResult result = Check(std::move(sources));
  result.files_fixed = files_fixed;
  return result;
}

}  // namespace wsnlint
