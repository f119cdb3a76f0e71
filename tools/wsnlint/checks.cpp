// The cross-TU rule families (docs/STATIC_ANALYSIS.md has the catalog):
//   serdes-complete     serialize/parse pairs declared by a serdes
//                       (Struct, WriteFn, ReadFn) marker cover every field
//                       of the struct
//   hot-path-transitive the no-hot-alloc / no-wallclock bans propagate from
//                       wsnlint:hot-path roots through the call graph
//                       instead of stopping at file boundaries
//   lp-isolation        no unjustified mutable static state in files
//                       reachable from the worker pool, the sweep workers,
//                       or the serve/ handlers (state shared across threads)
//   layer-dag           quoted includes respect the directory layering
//                       util < sim/trace < phy/channel < mac/core < link <
//                       app < node < metrics < experiment/validate < serve
//   unreached           every function defined in src/ is reachable from
//                       the main of some binary under examples/, bench/,
//                       perfbench/ or tools/
#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <regex>
#include <set>
#include <utility>

#include "rules.h"

namespace wsnlint {
namespace {

std::string Qualified(const FunctionInfo& fn) {
  return fn.class_name.empty() ? fn.name : fn.class_name + "::" + fn.name;
}

std::string BodyText(const Index& index, const FunctionInfo& fn) {
  const SourceFile* file = index.FileByPath(fn.file);
  if (!file || fn.body_end <= fn.body_begin) return "";
  return file->scan.code.substr(fn.body_begin, fn.body_end - fn.body_begin);
}

bool MentionsWord(const std::string& text, const std::string& word) {
  return std::regex_search(text, std::regex("\\b" + word + "\\b"));
}

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// --- transient / serdes marker bookkeeping ----------------------------------

struct TransientEntry {
  std::string id;
  int line = 0;
  bool has_reason = false;
  bool matched = false;  // names a member of some checked type in its file
  bool used = false;     // actually exempted a would-be finding
};

using TransientMap = std::map<std::string, std::vector<TransientEntry>>;

TransientMap CollectTransients(const Index& index, std::vector<Finding>* out) {
  TransientMap map;
  for (const SourceFile& file : index.files) {
    for (const Marker& marker : file.markers) {
      if (marker.verb != "transient") continue;
      if (marker.ids.empty()) {
        out->push_back({file.path, marker.line, "marker-directive",
                        "wsnstatic:transient needs at least one member name"});
        continue;
      }
      for (const std::string& id : marker.ids) {
        if (!marker.has_reason) {
          out->push_back({file.path, marker.line, "marker-directive",
                          "wsnstatic:transient(" + id +
                              ") needs a one-line justification after ':'"});
        }
        map[file.path].push_back(
            {id, marker.line, marker.has_reason, false, false});
      }
    }
  }
  return map;
}

/// Finds the transient entry for `member` in `file`, if any, marking it
/// matched (and used when `use` is set).
TransientEntry* LookupTransient(TransientMap& map, const std::string& file,
                                const std::string& member, bool use) {
  auto it = map.find(file);
  if (it == map.end()) return nullptr;
  for (TransientEntry& entry : it->second) {
    if (entry.id == member) {
      entry.matched = true;
      if (use) entry.used = true;
      return &entry;
    }
  }
  return nullptr;
}

/// Core of serdes-complete: every member of `cls` must be mentioned in both
/// bodies or carry a transient marker in the class's own file.
void CheckRoundTrip(const ClassInfo& cls, const std::string& save_body,
                    const std::string& restore_body,
                    const std::string& save_name,
                    const std::string& restore_name, TransientMap& transients,
                    std::vector<Finding>* out) {
  for (const Member& member : cls.members) {
    const bool saved = MentionsWord(save_body, member.name);
    const bool restored = MentionsWord(restore_body, member.name);
    if (saved && restored) {
      LookupTransient(transients, cls.file, member.name, /*use=*/false);
      continue;
    }
    if (LookupTransient(transients, cls.file, member.name, /*use=*/true)) {
      continue;
    }
    std::string problem;
    if (!saved && !restored) {
      problem = "is not round-tripped by '" + save_name + "'/'" +
                restore_name + "'";
    } else if (!saved) {
      problem = "is not written by '" + save_name + "'";
    } else {
      problem = "is not read back by '" + restore_name + "'";
    }
    out->push_back({cls.file, member.line, "serdes-complete",
                    "field '" + member.name + "' of '" + cls.name + "' " +
                        problem +
                        "; round-trip it or mark it wsnstatic:transient "
                        "with a reason"});
  }
}

// --- family 1: declared serialize/parse mirrors ----------------------------

void CheckSerdes(const Index& index, TransientMap& transients,
                 std::vector<Finding>* out) {
  for (const SourceFile& file : index.files) {
    for (const Marker& marker : file.markers) {
      if (marker.verb != "serdes") continue;
      if (marker.ids.size() != 3) {
        out->push_back(
            {file.path, marker.line, "marker-directive",
             "wsnstatic:serdes needs exactly (Struct, WriteFn, ReadFn)"});
        continue;
      }
      const std::string& struct_name = marker.ids[0];
      const auto resolve_fn =
          [&](const std::string& name) -> const FunctionInfo* {
        const FunctionInfo* fallback = nullptr;
        for (const FunctionInfo* fn : index.FunctionsNamed(name)) {
          if (fn->file == file.path) return fn;
          if (!fallback) fallback = fn;
        }
        return fallback;
      };
      const ClassInfo* cls = nullptr;
      for (const ClassInfo* candidate : index.ClassesNamed(struct_name)) {
        cls = candidate;
        if (candidate->file == file.path) break;
      }
      const FunctionInfo* write_fn = resolve_fn(marker.ids[1]);
      const FunctionInfo* read_fn = resolve_fn(marker.ids[2]);
      if (!cls || !write_fn || !read_fn) {
        const std::string missing =
            !cls ? "struct '" + struct_name + "'"
                 : "function '" + (!write_fn ? marker.ids[1] : marker.ids[2]) +
                       "'";
        out->push_back({file.path, marker.line, "marker-directive",
                        "wsnstatic:serdes(" + struct_name +
                            ") cannot resolve " + missing +
                            " in the scanned tree"});
        continue;
      }
      CheckRoundTrip(*cls, BodyText(index, *write_fn),
                     BodyText(index, *read_fn), Qualified(*write_fn),
                     Qualified(*read_fn), transients, out);
    }
  }
}

// --- reachability over the name-matched function graph ---------------------

using NameTargets = std::map<std::string, std::vector<std::size_t>>;

/// Breadth-first walk from `roots` (indices into `nodes`): a reached node
/// reaches every node that `targets` maps one of its `edges` names to.
/// Returns, per node, the qualified name of the root it was first reached
/// from; "" means unreached.
std::vector<std::string> Reach(const std::vector<FunctionInfo>& nodes,
                               const std::vector<std::size_t>& roots,
                               std::vector<std::string> FunctionInfo::*edges,
                               const NameTargets& targets) {
  std::vector<std::string> origin(nodes.size());
  std::vector<std::size_t> worklist;
  for (const std::size_t root : roots) {
    origin[root] = Qualified(nodes[root]);
    worklist.push_back(root);
  }
  for (std::size_t head = 0; head < worklist.size(); ++head) {
    const std::size_t fn_index = worklist[head];
    for (const std::string& name : nodes[fn_index].*edges) {
      const auto it = targets.find(name);
      if (it == targets.end()) continue;
      for (const std::size_t next : it->second) {
        if (!origin[next].empty()) continue;
        origin[next] = origin[fn_index];
        worklist.push_back(next);
      }
    }
  }
  return origin;
}

bool InSrc(const Index& index, const FunctionInfo& fn) {
  const SourceFile* file = index.FileByPath(fn.file);
  return file != nullptr && file->UnderSrc();
}

// --- family 2: transitive hot-path purity -----------------------------------

void CheckHotPaths(const Index& index, std::vector<Finding>* out) {
  // Roots: every function defined in a wsnlint:hot-path file. no-hot-alloc
  // already polices those files token-by-token; this rule follows calls
  // out of them, matching callees by unqualified name (a deliberate
  // over-approximation: a shared name means the body may run hot). The
  // walk stays inside src/.
  std::vector<std::size_t> roots;
  NameTargets by_name;
  for (std::size_t i = 0; i < index.functions.size(); ++i) {
    if (!InSrc(index, index.functions[i])) continue;
    by_name[index.functions[i].name].push_back(i);
    if (index.FileByPath(index.functions[i].file)->hot_path) {
      roots.push_back(i);
    }
  }
  const std::vector<std::string> origin =
      Reach(index.functions, roots, &FunctionInfo::calls, by_name);

  static const std::regex kWallclock(kWallclockTokens);

  for (std::size_t i = 0; i < index.functions.size(); ++i) {
    if (origin[i].empty()) continue;
    const FunctionInfo& fn = index.functions[i];
    const SourceFile* file = index.FileByPath(fn.file);
    if (!file || file->hot_path) continue;  // roots are no-hot-alloc's job
    const std::string body = BodyText(index, fn);
    const std::vector<std::string> lines = SplitLines(body);
    const int first_line = Index::LineOf(*file, fn.body_begin);
    for (std::size_t l = 0; l < lines.size(); ++l) {
      const std::string& line = lines[l];
      if (AllocatesOnHeap(line)) {
        out->push_back(
            {fn.file, first_line + static_cast<int>(l), "hot-path-transitive",
             "heap allocation in '" + Qualified(fn) +
                 "', reachable from wsnlint:hot-path root '" + origin[i] +
                 "'; the per-config inner loop runs allocation-free — build "
                 "into arena/scratch storage or hoist to setup"});
      }
      if (std::regex_search(line, kWallclock)) {
        out->push_back(
            {fn.file, first_line + static_cast<int>(l), "hot-path-transitive",
             "wall-clock/ambient entropy in '" + Qualified(fn) +
                 "', reachable from wsnlint:hot-path root '" + origin[i] +
                 "'; draw from the seeded util::Rng lineage"});
      }
    }
  }
}

// --- family 3: shared-state isolation (rule id lp-isolation) ----------------

bool IsLpRoot(const SourceFile& file) {
  return file.path == "src/util/thread_pool.cpp" ||
         file.path == "src/experiment/sweep.cpp" || file.UnderSrc("serve/");
}

void CheckLpIsolation(const Index& index, std::vector<Finding>* out) {
  // Reachability over the include graph, with each header pulling in its
  // same-basename implementation file (calling through the header runs the
  // .cpp). Roots are the concurrent execution entries: the shared worker
  // pool, the sweep worker body, and serve/.
  std::map<std::string, std::size_t> by_path;
  for (std::size_t i = 0; i < index.files.size(); ++i) {
    by_path[index.files[i].path] = i;
  }
  const auto resolve = [&](const std::string& target) -> std::size_t {
    auto it = by_path.find(target);
    if (it == by_path.end()) it = by_path.find("src/" + target);
    return it == by_path.end() ? index.files.size() : it->second;
  };

  std::vector<bool> reachable(index.files.size(), false);
  std::vector<std::string> origin(index.files.size());
  std::vector<std::size_t> worklist;
  for (std::size_t i = 0; i < index.files.size(); ++i) {
    if (IsLpRoot(index.files[i])) {
      reachable[i] = true;
      origin[i] = index.files[i].path;
      worklist.push_back(i);
    }
  }
  const auto visit = [&](std::size_t next, const std::string& from) {
    if (next >= index.files.size() || reachable[next]) return;
    reachable[next] = true;
    origin[next] = from;
    worklist.push_back(next);
  };
  for (std::size_t head = 0; head < worklist.size(); ++head) {
    const std::size_t file_index = worklist[head];
    const SourceFile& file = index.files[file_index];
    for (const Include& include : file.includes) {
      visit(resolve(include.target), origin[file_index]);
    }
    if (file.IsHeader()) {
      visit(resolve(file.path.substr(0, file.path.size() - 2) + ".cpp"),
            origin[file_index]);
    }
  }

  static const std::regex kStaticHead(R"(^\s*(static|thread_local)\b)");
  for (std::size_t i = 0; i < index.files.size(); ++i) {
    if (!reachable[i]) continue;
    const SourceFile& file = index.files[i];
    if (!EndsWith(file.path, ".cpp") && !EndsWith(file.path, ".cc")) continue;
    for (std::size_t l = 0; l < file.code_lines.size(); ++l) {
      if (!std::regex_search(file.code_lines[l], kStaticHead)) continue;
      // Gather the whole statement (may span lines).
      std::string statement = file.code_lines[l];
      std::size_t end = l;
      while (statement.find(';') == std::string::npos &&
             statement.find('{') == std::string::npos &&
             end + 1 < file.code_lines.size()) {
        statement += " " + file.code_lines[++end];
      }
      // Immutable state is fine; so are function declarations/definitions.
      static const std::regex kImmutable(
          R"(\b(constexpr|consteval)\b|\b(static|thread_local)\s+const\b)");
      if (std::regex_search(statement, kImmutable)) continue;
      const std::size_t paren = statement.find('(');
      if (paren != std::string::npos) {
        int depth = 0;
        std::size_t close = std::string::npos;
        for (std::size_t p = paren; p < statement.size(); ++p) {
          if (statement[p] == '(') ++depth;
          if (statement[p] == ')' && --depth == 0) {
            close = p;
            break;
          }
        }
        if (close == std::string::npos) continue;  // malformed; bail out
        const std::string args =
            statement.substr(paren + 1, close - paren - 1);
        const std::string after = statement.substr(close + 1);
        const bool is_function =
            args.find_first_not_of(" \t") == std::string::npos ||
            after.find('{') != std::string::npos;
        if (is_function) continue;
      }
      // The declared name: last identifier before the first of `=(;{`.
      std::size_t name_end = statement.find_first_of("=({;");
      if (name_end == std::string::npos) name_end = statement.size();
      while (name_end > 0 && !(std::isalnum(static_cast<unsigned char>(
                                   statement[name_end - 1])) ||
                               statement[name_end - 1] == '_')) {
        --name_end;
      }
      std::size_t name_begin = name_end;
      while (name_begin > 0 &&
             (std::isalnum(
                  static_cast<unsigned char>(statement[name_begin - 1])) ||
              statement[name_begin - 1] == '_')) {
        --name_begin;
      }
      const std::string name =
          statement.substr(name_begin, name_end - name_begin);
      if (name.empty()) continue;
      out->push_back(
          {file.path, static_cast<int>(l) + 1, "lp-isolation",
           "mutable static '" + name + "' in a file reachable from '" +
               origin[i] +
               "'; state shared across pool/sweep/serve threads races and "
               "leaks between runs — keep it per-run or per-thread, or "
               "justify with wsnstatic:allow(lp-isolation)"});
    }
  }
}

// --- family 4: layer DAG ------------------------------------------------------

const std::map<std::string, int>& LayerLevels() {
  static const std::map<std::string, int> kLevels = {
      {"util", 0},    {"sim", 1},        {"trace", 1},    {"phy", 2},
      {"channel", 2}, {"mac", 3},        {"core", 3},     {"link", 4},
      {"app", 5},     {"node", 6},       {"metrics", 7},  {"experiment", 8},
      {"validate", 8}, {"serve", 9},
  };
  return kLevels;
}

// Reviewed upward edges tolerated by layer-dag, as (from_dir, to_dir)
// pairs, each with a comment giving its reason. Empty: the DAG is strict.
const std::set<std::pair<std::string, std::string>> kLayerEscapes = {};

// The layer directory of a file under src/ ("" elsewhere).
std::string LayerDirOf(const SourceFile& file) {
  if (!file.UnderSrc()) return "";
  const std::size_t begin = std::string("src/").size();
  const std::size_t slash = file.path.find('/', begin);
  if (slash == std::string::npos) return "";
  return file.path.substr(begin, slash - begin);
}

void CheckLayerDag(const Index& index, std::vector<Finding>* out) {
  const auto& levels = LayerLevels();
  for (const SourceFile& file : index.files) {
    const std::string from_dir = LayerDirOf(file);
    const auto from_it = levels.find(from_dir);
    if (from_it == levels.end()) continue;
    for (const Include& include : file.includes) {
      const std::size_t slash = include.target.find('/');
      if (slash == std::string::npos) continue;
      const std::string to_dir = include.target.substr(0, slash);
      const auto to_it = levels.find(to_dir);
      if (to_it == levels.end()) continue;
      if (to_it->second <= from_it->second) continue;
      if (kLayerEscapes.count({from_dir, to_dir}) != 0) continue;
      out->push_back(
          {file.path, include.line, "layer-dag",
           "include \"" + include.target + "\" points upward: " + from_dir +
               " (level " + std::to_string(from_it->second) +
               ") may not depend on " + to_dir + " (level " +
               std::to_string(to_it->second) +
               "); invert the dependency or add a reviewed escape hatch in "
               "tools/wsnlint/checks.cpp"});
    }
  }
}

// --- family 5: reachability from the binaries -------------------------------

bool InBinaryDir(const std::string& path) {
  for (const char* dir : {"examples/", "bench/", "perfbench/", "tools/"}) {
    if (path.rfind(dir, 0) == 0) return true;
  }
  return false;
}

/// A binary source file's code outside every function definition: global
/// initializers and registrations, such as a benchmark library's
/// BENCHMARK(fn) under a library-supplied main, run as the binary starts.
FunctionInfo StaticInitNode(const Index& index, const SourceFile& file) {
  std::string code = file.scan.code;
  for (const FunctionInfo& fn : index.functions) {
    if (fn.file != file.path) continue;
    std::fill(code.begin() + static_cast<std::ptrdiff_t>(fn.head_begin),
              code.begin() + static_cast<std::ptrdiff_t>(fn.body_end), ' ');
  }
  return {"(static initialization)", "", file.path, 1, 0, 0, 0, {},
          ExtractRefs(code)};
}

bool IsOperator(const FunctionInfo& fn) {
  return fn.name.rfind("operator", 0) == 0;
}

/// Returns false, claiming nothing, when the scan holds no binary.
bool CheckUnreached(const Index& index, std::vector<Finding>* out) {
  // Roots: the main and the static initializers of every binary in the
  // scan. An edge is any identifier in a reached function's head or body (a
  // function passed as a value is not a call; an initializer list is not
  // the body), matched by unqualified name. A name that denotes a class
  // also reaches its constructors (same name), destructor, operators and
  // the types and initializers of its data members; a free operator is
  // reached by any name it uses. Every approximation errs toward reaching
  // more, so a finding is a definition no binary can run.
  std::vector<FunctionInfo> nodes = index.functions;
  for (const ClassInfo& cls : index.classes) {
    nodes.push_back(
        {cls.name, cls.name, cls.file, cls.line, 0, 0, 0, {}, cls.refs});
  }
  std::vector<std::size_t> roots;
  bool has_main = false;
  for (const SourceFile& file : index.files) {
    if (!InBinaryDir(file.path)) continue;
    roots.push_back(nodes.size());
    nodes.push_back(StaticInitNode(index, file));
  }
  NameTargets targets;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const FunctionInfo& fn = nodes[i];
    if (fn.name == "main" && fn.class_name.empty() && InBinaryDir(fn.file)) {
      has_main = true;
      roots.push_back(i);
    }
    targets[fn.name].push_back(i);
    const bool special = fn.name[0] == '~' || IsOperator(fn);
    if (special && !fn.class_name.empty()) {
      targets[fn.class_name].push_back(i);
    } else if (IsOperator(fn)) {
      for (const std::string& name : fn.refs) targets[name].push_back(i);
    }
  }
  if (!has_main) return false;
  const std::vector<std::string> origin =
      Reach(nodes, roots, &FunctionInfo::refs, targets);
  for (std::size_t i = 0; i < index.functions.size(); ++i) {
    const FunctionInfo& fn = index.functions[i];
    if (!origin[i].empty() || !InSrc(index, fn)) continue;
    // Appended piecewise: GCC 12 reports a false -Wrestrict overlap on
    // `"literal" + std::string&&`.
    std::string message = "'";
    message.append(Qualified(fn))
        .append("' is defined in src/ but no main under examples/, bench/, "
                "perfbench/ or tools/ reaches it; delete it, or justify a "
                "test-only API with wsnstatic:allow(unreached)");
    out->push_back({fn.file, fn.line, "unreached", std::move(message)});
  }
  return true;
}

// --- marker follow-up ---------------------------------------------------------

void ReportTransientProblems(const TransientMap& transients,
                             std::vector<Finding>* out) {
  for (const auto& [file, entries] : transients) {
    for (const TransientEntry& entry : entries) {
      if (!entry.matched) {
        out->push_back({file, entry.line, "marker-directive",
                        "wsnstatic:transient(" + entry.id +
                            ") names no member of a snapshot/serdes-checked "
                            "type in this file; remove it"});
      } else if (!entry.used && entry.has_reason) {
        out->push_back({file, entry.line, "marker-directive",
                        "stale wsnstatic:transient(" + entry.id + "): '" +
                            entry.id +
                            "' is round-tripped already; remove it"});
      }
    }
  }
}

}  // namespace

std::vector<Finding> CheckIndex(const Index& index) {
  std::vector<Finding> raw;
  TransientMap transients = CollectTransients(index, &raw);
  CheckSerdes(index, transients, &raw);
  CheckHotPaths(index, &raw);
  CheckLpIsolation(index, &raw);
  CheckLayerDag(index, &raw);
  const bool reach_claimed = CheckUnreached(index, &raw);
  ReportTransientProblems(transients, &raw);

  // Apply each file's wsnstatic:allow directives to its findings; a file
  // with none still gets its directives checked for staleness.
  std::map<std::string, std::vector<Finding>> by_file;
  for (Finding& finding : raw) {
    by_file[finding.file].push_back(std::move(finding));
  }
  std::vector<Finding> kept;
  for (const SourceFile& file : index.files) {
    auto it = by_file.find(file.path);
    std::vector<Finding> file_findings;
    if (it != by_file.end()) {
      file_findings = std::move(it->second);
      by_file.erase(it);
    }
    ApplyAllows("wsnstatic", file, std::move(file_findings), &kept,
                reach_claimed ? "" : "unreached");
  }
  // Findings attributed to paths outside the index (should not happen, but
  // never drop a finding silently).
  for (auto& [path, findings] : by_file) {
    for (Finding& finding : findings) kept.push_back(std::move(finding));
  }
  return kept;
}

}  // namespace wsnlint
