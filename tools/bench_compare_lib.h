// Benchmark-comparison logic behind the bench_compare CLI, extracted so the
// regression-gate semantics (missing baseline key = failure, threshold
// verdicts, unit normalization) are unit-testable instead of living only in
// a main().
//
// Matches benchmarks by name between two google-benchmark JSON documents,
// compares the chosen per-iteration time metric, and classifies each row.
// A baseline key absent from the new run is a hard failure: a rename or a
// silently dropped bench must not shrink the gate.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "support/result.h"

namespace fullweb::benchcmp {

struct BenchResult {
  double time = 0.0;  ///< chosen metric, normalized to ns/op
  double items_per_second = 0.0;
};

using BenchMap = std::map<std::string, BenchResult>;

/// Parse a google-benchmark-shaped JSON document (the string contents, not a
/// path). Aggregate rows (mean/median/stddev from --benchmark_repetitions)
/// are skipped so a repeated run still matches a plain baseline. Entries
/// missing both `metric` and the "real_time" fallback are skipped. Errors on
/// malformed JSON or a document without a "benchmarks" array.
[[nodiscard]] support::Result<BenchMap> parse_results(const std::string& text,
                                                      const std::string& metric);

/// parse_results over a file's contents; errors when the file cannot be read.
[[nodiscard]] support::Result<BenchMap> load_results(const std::string& path,
                                                     const std::string& metric);

enum class Verdict { kOk, kImproved, kRegression, kMissing, kNew };

struct CompareRow {
  std::string name;
  double base_time = 0.0;  ///< ns; 0 when verdict == kNew
  double new_time = 0.0;   ///< ns; 0 when verdict == kMissing
  double ratio = 0.0;      ///< new/base; 0 when either side is absent
  Verdict verdict = Verdict::kOk;
};

struct CompareReport {
  std::vector<CompareRow> rows;  ///< baseline order, then new-only benchmarks
  int compared = 0;
  int regressions = 0;
  int missing = 0;

  /// The CLI exit policy: nonzero when the gate must fail.
  [[nodiscard]] bool failed() const noexcept {
    return regressions > 0 || missing > 0;
  }
};

/// Compare two result maps with a relative regression threshold
/// (0.10 = +10% is the CLI default).
[[nodiscard]] CompareReport compare(const BenchMap& baseline,
                                    const BenchMap& fresh, double threshold);

/// Render the report as the classic bench_compare table.
[[nodiscard]] std::string render(const CompareReport& report, double threshold);

// ---------------------------------------------------------------------------
// --min-speedup mode: absolute floor on a single result file
//
// The benches emit a "speedup" field on each row whose ratio they measured
// on the host that ran them; bench_parallel_scaling leaves it off a thread
// count the host cannot run at once. This gate checks those speedups
// against a floor instead of diffing two files — the scaling equivalent of
// the regression threshold.

struct SpeedupRow {
  std::string name;
  std::optional<double> speedup;  ///< absent = not measured
  bool pass = false;
};

struct SpeedupReport {
  std::vector<SpeedupRow> rows;  ///< every matching benchmark, file order
  int checked = 0;               ///< matching rows with a speedup
  int failures = 0;

  /// Every matching row lacks a speedup: nothing measured to gate, so the
  /// CLI reports SKIPPED (exit 77) rather than a verdict.
  [[nodiscard]] bool skipped() const noexcept {
    return !rows.empty() && checked == 0;
  }
  /// Exit policy: zero matching rows also fails — a rename or a dropped
  /// bench must not silently shrink the gate.
  [[nodiscard]] bool failed() const noexcept {
    return failures > 0 || rows.empty();
  }
};

/// Check every benchmark whose name contains `name_filter` (all rows when
/// empty) against the floor; a matching row without a "speedup" field is
/// listed as not measured. Text is the JSON document contents; errors
/// mirror parse_results.
[[nodiscard]] support::Result<SpeedupReport> check_min_speedup(
    const std::string& text, double min_speedup,
    const std::string& name_filter);

/// Render the speedup gate as a table.
[[nodiscard]] std::string render_speedup(const SpeedupReport& report,
                                         double min_speedup,
                                         const std::string& name_filter);

// ---------------------------------------------------------------------------
// Build-type detection
//
// A debug baseline makes a regression gate vacuous: any release run beats it,
// so real regressions sail through. google-benchmark's own
// context.library_build_type describes how *libbenchmark* was compiled (the
// system package reports "debug" even under -O2 -DNDEBUG), so the bench
// mains additionally stamp context.binary_build_type from NDEBUG, which
// describes the benchmark binary itself and takes precedence here.

/// Extract the build type from a google-benchmark JSON document's context:
/// "binary_build_type" when present, else "library_build_type", else ""
/// (unknown — old files without the custom stamp are not failed).
[[nodiscard]] std::string detect_build_type(const std::string& text);

/// True when `text`'s detected build type is "debug" — the condition under
/// which compare-mode and --check-release fail the gate.
[[nodiscard]] bool is_debug_build(const std::string& text);

}  // namespace fullweb::benchcmp
