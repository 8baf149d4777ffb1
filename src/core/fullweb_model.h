// The FULL-Web model: the paper's complete request- and session-level
// statistical characterization of one Web server's workload, in one call.
//
// Mirrors the paper's structure:
//   §4.1  request arrival process  -> ArrivalAnalysis (raw/stationary Hurst,
//                                     aggregation sweeps)
//   §4.2  Poisson tests (requests) -> PoissonBattery per Low/Med/High
//   §5.1  session arrival process  -> ArrivalAnalysis + PoissonBattery
//   §5.2  intra-session tails      -> TailAnalysis for session length,
//                                     requests/session, bytes/session,
//                                     per Low/Med/High interval and the week
//
// fit_fullweb_model expresses the Figure 1 branches — the two arrival
// analyses, the per-interval Poisson batteries, the per-interval tail
// analyses, and the error analysis — as a task graph on a
// support::Executor. Every stochastic component draws from a fixed RNG
// substream (support::RngSplitter), so the fitted model is bit-identical
// at any thread count, including a serial (--threads 1) run.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "core/arrival_analysis.h"
#include "core/error_analysis.h"
#include "core/tail_analysis.h"
#include "poisson/poisson_test.h"
#include "support/result.h"
#include "support/rng.h"
#include "support/timing.h"
#include "weblog/dataset.h"

namespace fullweb::support {
class Executor;
}

namespace fullweb::core {

/// The four §4.2 test configurations for one 4-hour interval.
struct PoissonBattery {
  weblog::Interval interval;
  bool available = false;  ///< enough events to run any configuration

  struct Cell {
    bool ran = false;
    poisson::PoissonTestResult result;
    std::string skip_reason;  ///< set when !ran
  };
  Cell hourly_uniform;
  Cell hourly_deterministic;
  Cell tenmin_uniform;
  Cell tenmin_deterministic;

  /// True when every configuration that ran is consistent with Poisson.
  [[nodiscard]] bool poisson_all() const noexcept;
  /// True when at least one configuration ran.
  [[nodiscard]] bool any_ran() const noexcept;
};

/// Tables 2/3/4 cells for one interval (or the whole week).
struct IntervalTails {
  weblog::Interval interval;
  std::size_t sessions = 0;
  TailAnalysis length;    ///< session length in time units (Table 2)
  TailAnalysis requests;  ///< requests per session (Table 3)
  TailAnalysis bytes;     ///< bytes transferred per session (Table 4)
};

struct FullWebOptions {
  ArrivalAnalysisOptions arrivals;
  TailAnalysisOptions tails;
  double interval_seconds = 4.0 * 3600.0;  ///< the paper's 4-hour windows
  bool run_poisson = true;
  poisson::PoissonTestOptions poisson;     ///< base options; interval length
                                           ///< and spread mode are varied
  std::size_t poisson_min_events = 200;    ///< below this an interval is NA
  bool run_error_analysis = true;          ///< Figure 1's error branch
  ErrorAnalysisOptions errors;

  /// Task executor for the whole pipeline (null = the global pool). Also
  /// used for nested fan-outs (Hurst suites, curvature) unless
  /// those sub-options name their own executor.
  support::Executor* executor = nullptr;
  /// Optional per-branch wall-clock observer (see support/timing.h).
  support::StageTimings* timings = nullptr;
};

struct FullWebModel {
  std::string server;

  // Table 1 row.
  std::size_t total_requests = 0;
  std::size_t total_sessions = 0;
  double mb_transferred = 0.0;

  ArrivalAnalysis request_arrivals;  ///< §4.1
  ArrivalAnalysis session_arrivals;  ///< §5.1.1

  std::map<weblog::Load, PoissonBattery> request_poisson;  ///< §4.2
  std::map<weblog::Load, PoissonBattery> session_poisson;  ///< §5.1.2

  std::map<weblog::Load, IntervalTails> interval_tails;    ///< Tables 2-4
  IntervalTails week_tails;                                 ///< Week rows

  /// Figure 1's error-analysis branch; absent when statuses are unknown
  /// or the branch is disabled.
  std::optional<ErrorAnalysis> errors;
};

[[nodiscard]] support::Result<FullWebModel> fit_fullweb_model(
    const weblog::Dataset& dataset, support::Rng& rng,
    const FullWebOptions& options = {});

/// Render the model as a multi-section text report (quickstart output).
[[nodiscard]] std::string render_report(const FullWebModel& model);

}  // namespace fullweb::core
