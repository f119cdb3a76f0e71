#include "runner.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace wsnstatic {
namespace {

namespace fs = std::filesystem;

bool HasSourceExtension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cpp" || ext == ".cc";
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("wsnstatic: cannot read " + path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string RelativePath(const fs::path& path, const fs::path& root) {
  return fs::relative(path, root).generic_string();
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
/// allow-list inventory. Covers wsnstatic markers and wsnlint's, so a PR
/// diff of the artifact shows every new escape in one place.
std::string BuildInventory(const Index& index) {
  std::vector<std::string> lines;
  for (const SourceFile& file : index.files) {
    for (const analysis::Marker& marker : file.markers) {
      lines.push_back(file.path + ":" + std::to_string(marker.line) +
                      ": wsnstatic:" + marker.verb + "(" +
                      JoinIds(marker.ids) + ")" +
                      (marker.has_reason ? ": " + marker.reason : ""));
    }
    for (const analysis::Marker& marker :
         analysis::ParseMarkers("wsnlint", file.scan.comments)) {
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
  static const std::vector<std::string> kExcludedParts = {
      "lint_fixtures",    // violation corpus for the wsnlint golden test
      "static_fixtures",  // violation corpus for the wsnstatic golden test
      "golden",           // checked-in expected outputs, not code
      ".git",
  };
  for (const std::string& part : kExcludedParts) {
    if (relative_path.find(part) != std::string::npos) return true;
  }
  return relative_path.rfind("build", 0) == 0;
}

RunResult Check(std::vector<std::pair<std::string, std::string>> sources) {
  RunResult result;
  result.files_scanned = static_cast<int>(sources.size());
  const Index index = BuildIndex(std::move(sources));
  result.findings = CheckIndex(index);
  result.inventory = BuildInventory(index);
  return result;
}

RunResult Run(const Options& options) {
  const fs::path root = fs::absolute(options.root);
  std::vector<std::string> roots = options.paths;
  if (roots.empty()) roots = {"src"};

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
      throw std::runtime_error("wsnstatic: no such file or directory: " +
                               path.string());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<std::pair<std::string, std::string>> sources;
  for (const fs::path& file : files) {
    const std::string rel = RelativePath(file, root);
    if (IsExcluded(rel)) continue;
    sources.emplace_back(rel, ReadFile(file));
  }
  return Check(std::move(sources));
}

}  // namespace wsnstatic
