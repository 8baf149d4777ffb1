// The gates behind the bench_compare CLI, kept in a small library so their
// semantics are unit-testable instead of living only in a main().
//
// Both read the JSON result files the perf drivers write: a "context"
// object and a "benchmarks" array of named rows.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "support/result.h"

namespace fullweb::benchcmp {

// ---------------------------------------------------------------------------
// --min-speedup mode: absolute floor on a single result file
//
// The benches emit a "speedup" field on each row whose ratio they measured
// on the host that ran them; bench_parallel_scaling leaves it off a thread
// count the host cannot run at once. This gate checks those speedups
// against a floor.

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
/// listed as not measured. Text is the JSON document contents; errors on
/// malformed JSON or a document without a "benchmarks" array.
[[nodiscard]] support::Result<SpeedupReport> check_min_speedup(
    const std::string& text, double min_speedup,
    const std::string& name_filter);

/// Render the speedup gate as a table.
[[nodiscard]] std::string render_speedup(const SpeedupReport& report,
                                         double min_speedup,
                                         const std::string& name_filter);

// ---------------------------------------------------------------------------
// --check-release mode: build-type audit of committed baselines
//
// A baseline recorded by a debug binary is no reference for anything.
// bench_fullscale and bench_online stamp context.binary_build_type from
// NDEBUG, which says how the binary that took the numbers was compiled.

/// The context's "binary_build_type" stamp, or "" (unknown — files without
/// the stamp are not failed).
[[nodiscard]] std::string detect_build_type(const std::string& text);

}  // namespace fullweb::benchcmp
