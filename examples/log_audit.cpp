// Log audit: run the FULL-Web characterization on Common Log Format files.
//
// This is the tool a downstream operator would actually point at their
// server logs. Given one or more CLF/Combined access logs it parses,
// sessionizes (30-minute threshold), and reports:
//   - volume summary (Table 1 style),
//   - stationarity + Hurst battery for request and session arrivals,
//   - Poisson verdicts for the busiest 4-hour window,
//   - heavy-tail analysis of the three intra-session characteristics.
// With no argument it writes a demo log (synthetic ClarkNet day) first and
// audits that, so the example is runnable out of the box.
//
// Every file goes through the streaming path (chunked parallel parse,
// bounded-memory sessionization) and gets its IngestStats printed. Several
// files are read in the order given and merged by time before the sessions
// are final: the Figure 1 treatment of redundant-server architectures (WVU
// and CSEE ran replicated servers whose logs must be merged, or a client
// alternating between replicas would have its session split).
//
//   ./log_audit [access1.log access2.log ...]
#include <cstdio>
#include <fstream>
#include <iostream>

#include "core/error_analysis.h"
#include "core/fullweb_model.h"
#include "core/interarrival.h"
#include "core/report_markdown.h"
#include "support/cli.h"
#include "support/executor.h"
#include "synth/generator.h"
#include "weblog/clf.h"
#include "weblog/dataset.h"

namespace {

using namespace fullweb;

int write_demo_log(const std::string& path) {
  support::Rng rng(99);
  synth::GeneratorOptions gen;
  gen.duration = 86400.0;
  gen.scale = 0.25;
  auto workload =
      synth::generate_workload(synth::ServerProfile::clarknet(), gen, rng);
  if (!workload) {
    std::fprintf(stderr, "demo generation failed: %s\n",
                 workload.error().message.c_str());
    return 1;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  support::Rng rng2(100);
  for (const auto& e : synth::to_log_entries(workload.value(), rng2))
    out << weblog::to_clf_line(e) << '\n';
  std::printf("wrote demo log to %s (%zu requests)\n", path.c_str(),
              workload.value().requests.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  support::CliFlags flags;
  flags.define("threshold-minutes", "30", "session inactivity threshold");
  flags.define("curvature-replicates", "99", "Monte-Carlo replicates (0 = skip)");
  flags.define("markdown", "", "also write a Markdown report to this path");
  flags.define("threads", "0",
               "analysis threads (0 = hardware concurrency, 1 = serial)");
  if (!flags.parse(argc, argv)) return 2;
  support::Executor::set_global_threads(flags.get_count("threads"));

  std::vector<std::string> paths = flags.positional();
  if (paths.empty()) {
    const std::string demo = "demo_access.log";
    std::ifstream probe(demo);
    if (!probe && write_demo_log(demo) != 0) return 1;
    paths.push_back(demo);
  }

  weblog::StreamIngestOptions iopts;
  iopts.sessionizer.threshold_seconds =
      flags.get_double("threshold-minutes") * 60.0;
  weblog::StreamIngestReport report;
  auto ingested =
      weblog::Dataset::from_clf_stream(paths.front(), paths, iopts, &report);
  for (const auto& f : report.files) std::printf("%s\n", f.summary().c_str());
  if (!ingested.ok()) {
    std::fprintf(stderr, "no parsable entries: %s\n",
                 ingested.error().message.c_str());
    return 1;
  }
  std::printf("peak open sessions: %zu (%s)\n", report.peak_open_sessions,
              report.sessionized_incrementally
                  ? "sessionized while parsing"
                  : "input out of time order: sessionized after sorting");
  const weblog::Dataset& dataset = ingested.value();

  core::FullWebOptions opts;
  const std::size_t reps = flags.get_count("curvature-replicates");
  opts.tails.run_curvature = reps > 0;
  opts.tails.curvature_replicates = reps;
  support::Rng rng(7);
  auto model = core::fit_fullweb_model(dataset, rng, opts);
  if (!model.ok()) {
    std::fprintf(stderr, "analysis failed: %s\n", model.error().message.c_str());
    return 1;
  }
  std::cout << core::render_report(model.value());

  // Which classical model do the request inter-arrival times actually
  // follow? (Under LRD traffic the exponential loses badly — §4.2.)
  if (auto ia = core::analyze_interarrivals(dataset.request_times()); ia.ok()) {
    std::printf("\nRequest inter-arrival model ranking (n=%zu, cv=%.2f):\n",
                ia.value().n, ia.value().cv);
    for (const auto& f : ia.value().fits) {
      std::printf("  %-12s AIC %+12.1f (delta %8.1f)  params: %.4g %.4g\n",
                  core::to_string(f.model).c_str(), f.aic, f.delta_aic,
                  f.param1, f.param2);
    }
    std::printf("  exponential adequate (AIC winner + A^2 pass): %s\n",
                ia.value().exponential_adequate() ? "yes" : "NO");
  }

  // Error / reliability view (Figure 1's error-analysis branch).
  if (auto err = core::analyze_errors(dataset); err.ok()) {
    const auto& e = err.value();
    std::printf("\nError & reliability analysis:\n");
    std::printf("  status mix: 1xx=%zu 2xx=%zu 3xx=%zu 4xx=%zu 5xx=%zu\n",
                e.statuses.by_class[1], e.statuses.by_class[2],
                e.statuses.by_class[3], e.statuses.by_class[4],
                e.statuses.by_class[5]);
    std::printf("  request error rate: %.2f%% (server errors %.2f%%)\n",
                100.0 * e.request_error_rate, 100.0 * e.server_error_rate);
    std::printf("  session reliability: %.2f%% (%zu of %zu sessions hit an "
                "error; %.1f errors per affected session)\n",
                100.0 * e.session_reliability, e.sessions_with_error,
                e.sessions, e.errors_per_bad_session);
  }

  // Optional Markdown artifact with everything above in shareable form.
  const std::string md_path = flags.get("markdown");
  if (!md_path.empty()) {
    std::ofstream md(md_path);
    if (!md) {
      std::fprintf(stderr, "cannot write %s\n", md_path.c_str());
      return 1;
    }
    md << core::render_markdown(model.value());
    if (auto err = core::analyze_errors(dataset); err.ok())
      md << core::render_markdown_errors(err.value());
    if (auto ia = core::analyze_interarrivals(dataset.request_times()); ia.ok())
      md << core::render_markdown_interarrivals(ia.value());
    std::printf("\nwrote Markdown report to %s\n", md_path.c_str());
  }
  return 0;
}
