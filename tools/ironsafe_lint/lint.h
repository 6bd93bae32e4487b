#ifndef IRONSAFE_TOOLS_IRONSAFE_LINT_LINT_H_
#define IRONSAFE_TOOLS_IRONSAFE_LINT_LINT_H_

#include <string>
#include <string_view>
#include <vector>

/// ironsafe-lint: a deliberately small static-analysis pass that enforces
/// the invariants IronSafe's correctness story rests on and the compiler
/// does not check. (A discarded Status or Result<T> is the compiler's
/// job: both types are [[nodiscard]] and the build sets
/// -Werror=unused-result.) See docs/STATIC_ANALYSIS.md for the catalog:
///
///   layering          — per-module allowed-include lists mirroring the
///                       library DAG declared in src/*/CMakeLists.txt,
///                       plus include-cycle detection over actual files.
///   enclave-boundary  — secure-world code (src/tee, src/securestore)
///                       must not reach untrusted I/O (logging, iostream,
///                       printf-family).
///   determinism       — no wall clocks or ambient randomness outside the
///                       timing-shim allowlist; no iteration over
///                       unordered containers in files whose output order
///                       is observable (exporters, trace, wire).
///   vector-kernel-boxing — the vectorized engine's kernel files
///                       (sql/vector_kernels.*) must not touch the boxed
///                       Value type; kernels operate on raw payload
///                       arrays only.
///   oblivious-branching — the oblivious kernels
///                       (sql/oblivious_kernels.*) must be branch-free;
///                       only loops over public bounds are allowed.
///   hygiene           — headers carry include guards; no
///                       `using namespace std;` in headers.
///
/// A diagnostic on line N is silenced by `// ironsafe-lint: allow(<rule>)`
/// on line N or on line N-1.
namespace ironsafe::lint {

struct Diagnostic {
  std::string rule;  ///< "layering", "enclave-boundary", "determinism",
                     ///< "vector-kernel-boxing", "oblivious-branching",
                     ///< "hygiene"
  std::string file;  ///< path relative to the tree root
  int line = 0;      ///< 1-based
  std::string message;
};

struct Options {
  /// Absolute (or cwd-relative) path of the repo checkout.
  std::string tree_root = ".";
  /// Subtrees to walk, relative to tree_root.
  std::vector<std::string> roots = {"src", "bench", "tests"};
  /// Any file whose root-relative path contains one of these substrings
  /// is skipped (lint-rule fixtures violate rules on purpose).
  std::vector<std::string> exclude_substrings = {"lint_fixtures", "build"};
};

struct Report {
  std::vector<Diagnostic> diagnostics;  ///< sorted by (file, line, rule)
  int files_scanned = 0;
};

/// Lints one file from memory; `rel_path` (root-relative, '/'-separated)
/// selects which rules apply. Does not include cross-file checks
/// (include cycles). This is the unit-test entry point.
std::vector<Diagnostic> LintSource(std::string_view rel_path,
                                   std::string_view text);

/// Walks the configured subtrees, lints every .h/.cc/.cpp file, and runs
/// the cross-file include-cycle check.
Report LintTree(const Options& opts);

/// Machine-readable report: {"version":1, "files_scanned":N,
/// "violation_count":N, "diagnostics":[{rule,file,line,message}...]}.
std::string ReportToJson(const Report& report);

}  // namespace ironsafe::lint

#endif  // IRONSAFE_TOOLS_IRONSAFE_LINT_LINT_H_
