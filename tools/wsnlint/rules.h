// wsnlint rule registry: one table for both rule families.
//
// Each rule enforces one repo-wide contract (see docs/STATIC_ANALYSIS.md for
// the catalog and the determinism rationale). Per-file rules are token-level
// checks over the blanked "code view" produced by source.h; cross-TU rules
// run over the structural Index (index.h) of the files under src/. Both are
// deliberately dependency-free (no libclang), so the analyzer builds and
// runs anywhere the simulator does and adds nothing to CI setup.
//
// Suppression: a comment anywhere in a file of the form
//   // <prefix>:allow(<rule-id>): one-line justification
// (angle brackets not included) disables that rule for the whole file,
// where <prefix> is the rule's own marker spelling: `wsnlint` for the
// per-file rules, `wsnstatic` for the cross-TU ones. The justification is
// mandatory (an allow without one is itself a finding), an allow naming a
// rule of the other spelling is an unknown rule id, and an allow that
// suppresses nothing is flagged as stale so escapes cannot rot in place.
#pragma once

#include <string>
#include <vector>

#include "index.h"
#include "source.h"

namespace wsnlint {

enum class Scope { kPerFile, kCrossTu };

/// Static description of one rule.
struct RuleInfo {
  std::string id;
  Scope scope = Scope::kPerFile;
  std::string prefix;  // marker spelling that may allow it
  std::string summary;
};

/// All registered rules, in reporting order: per-file, then cross-TU.
[[nodiscard]] const std::vector<RuleInfo>& Rules();

/// True if `id` names a registered rule whose allow prefix is `prefix`.
[[nodiscard]] bool IsKnownRule(const std::string& prefix,
                               const std::string& id);

/// Applies `file`'s file-scope `<prefix>:allow` directives to `raw`:
/// suppressed findings are dropped, the rest are appended to `out` together
/// with directive problems (unknown rule id, missing justification, stale
/// allow) under the `allow-directive` pseudo-rule.
void ApplyAllows(const std::string& prefix, const SourceFile& file,
                 std::vector<Finding> raw, std::vector<Finding>* out);

/// Runs every per-file rule over one file, with its `wsnlint:allow`
/// directives applied.
[[nodiscard]] std::vector<Finding> CheckFile(const SourceFile& file);

/// Convenience: scans `content` and runs CheckFile.
[[nodiscard]] std::vector<Finding> CheckSource(const std::string& path,
                                               const std::string& content);

/// Runs every cross-TU rule over the index, with each file's
/// `wsnstatic:allow` directives applied. Marker problems (malformed serdes,
/// unmatched or stale transient) are findings under `marker-directive`.
[[nodiscard]] std::vector<Finding> CheckIndex(const Index& index);

/// Applies the mechanical fixes (rule header-hygiene: inserts a missing
/// `#pragma once` after the leading comment block). Returns the fixed
/// content; equal to the input when there is nothing to fix. Idempotent.
[[nodiscard]] std::string ApplyFixes(const std::string& path,
                                     const std::string& content);

// --- token sets shared by a per-file rule and hot-path-transitive ----------

/// True when a code line calls the heap allocator: make_unique/make_shared,
/// the malloc family, or a `new` that is neither placement nor `operator`.
/// no-hot-alloc applies it inside hot-path files, hot-path-transitive to the
/// functions they reach.
[[nodiscard]] bool AllocatesOnHeap(const std::string& code_line);

/// Regex alternation of wall-clock and ambient-entropy reads. no-wallclock
/// bans it in src/ (plus the <chrono>/<ctime>/<random> includes),
/// hot-path-transitive in functions reachable from hot-path roots.
extern const char* const kWallclockTokens;

}  // namespace wsnlint
