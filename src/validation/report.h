// JSON serialization of the validation report plus baseline drift checking.
//
// The report serializes deterministically (support::JsonWriter): a run with
// the same (profile, seed) produces byte-identical output at any thread
// count. A baseline report is committed at the repo root
// (VALIDATION_baseline.json); check_against_baseline re-parses both
// documents and compares every numeric/boolean/string leaf by path, so a
// kernel change that silently biases an estimator shows up as a named
// drifted metric even while all gates still pass. Baseline leaves missing
// from the fresh report fail the check, so a renamed or dropped metric
// cannot shrink it; fresh-only leaves are informational.
#pragma once

#include <string>
#include <vector>

#include "support/result.h"
#include "validation/selftest.h"

namespace fullweb::validation {

[[nodiscard]] std::string report_to_json(const ValidationReport& report);

/// Write the serialized report to `path` (overwrites).
[[nodiscard]] support::Status write_report(const ValidationReport& report,
                                           const std::string& path);

struct DriftFinding {
  std::string path;      ///< e.g. "hurst.cells[3].bias"
  std::string kind;      ///< "drifted" | "missing" | "type-changed" | "new"
  std::string detail;    ///< human-readable values
};

struct DriftReport {
  std::vector<DriftFinding> findings;
  std::size_t compared = 0;
  std::size_t drifted = 0;   ///< includes type changes
  std::size_t missing = 0;

  [[nodiscard]] bool failed() const noexcept {
    return drifted > 0 || missing > 0;
  }
};

/// Compare a fresh report document against a baseline document (both JSON
/// text). Numeric leaves match when |a - b| <= abs_tol + rel_tol * max(|a|,
/// |b|); bools and strings must match exactly. Errors when either document
/// fails to parse.
[[nodiscard]] support::Result<DriftReport> check_against_baseline(
    const std::string& baseline_text, const std::string& fresh_text,
    double rel_tol = 1e-6, double abs_tol = 1e-9);

}  // namespace fullweb::validation
