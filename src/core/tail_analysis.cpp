#include "core/tail_analysis.h"

#include "support/executor.h"
#include "support/strings.h"
#include "support/timing.h"

namespace fullweb::core {

std::string TailAnalysis::hill_cell() const {
  if (!available || !hill.has_value()) return "NA";
  if (!hill->stabilized) return "NS";
  return support::format_sig(hill->alpha, 3);
}

std::string TailAnalysis::llcd_cell() const {
  if (!available || !llcd.has_value()) return "NA";
  return support::format_sig(llcd->alpha, 4);
}

std::string TailAnalysis::r2_cell() const {
  if (!available || !llcd.has_value()) return "NA";
  return support::format_sig(llcd->r_squared, 3);
}

TailAnalysis analyze_tail(std::span<const double> samples, support::Rng& rng,
                          const TailAnalysisOptions& options) {
  TailAnalysis out;
  if (samples.size() < options.min_samples) return out;  // NA

  // The two curvature tests get fixed substreams of the caller's generator
  // up front, so their draws are independent of scheduling (and of whether
  // the estimators below succeed). Level 0: curvature_test consumes its
  // stream whole (subdividing it internally into level -1 per-replicate
  // micro-streams). Callers handing us a stream from a splitter must have
  // split at level >= 1 to leave room for this split.
  support::RngSplitter streams(rng, 0);
  support::Rng pareto_rng = streams.stream(0);
  support::Rng lognormal_rng = streams.stream(1);

  support::Executor& ex = support::Executor::resolve(options.executor);
  {
    // The estimator pair and the curvature pair are sequential phases (the
    // curvature tests only run when an estimator succeeded); within each
    // phase the tasks are concurrent.
    support::StageTimer phase(options.timings, "estimators");
    support::TaskGroup group(ex);
    group.run([&] {
      support::StageTimer t(options.timings, "llcd fit");
      if (auto fit = tail::llcd_fit(samples, options.llcd); fit.ok())
        out.llcd = fit.value();
    });
    group.run([&] {
      support::StageTimer t(options.timings, "hill estimate");
      if (auto est = tail::hill_estimate(samples, options.hill); est.ok())
        out.hill = est.value();
    });
    group.wait();
  }
  out.available = out.llcd.has_value() || out.hill.has_value();
  if (!out.available) return out;

  if (options.run_curvature) {
    support::StageTimer phase(options.timings, "curvature");
    tail::CurvatureOptions copts;
    copts.replicates = options.curvature_replicates;
    copts.executor = &ex;  // replicates fan out on the same pool
    support::TaskGroup group(ex);
    group.run([&, copts]() mutable {
      support::StageTimer t(options.timings, "curvature pareto");
      copts.model = tail::TailModel::kPareto;
      if (auto c = tail::curvature_test(samples, pareto_rng, copts); c.ok())
        out.curvature_pareto = c.value();
    });
    group.run([&, copts]() mutable {
      support::StageTimer t(options.timings, "curvature lognormal");
      copts.model = tail::TailModel::kLognormal;
      if (auto c = tail::curvature_test(samples, lognormal_rng, copts); c.ok())
        out.curvature_lognormal = c.value();
    });
    group.wait();
  }
  return out;
}

}  // namespace fullweb::core
