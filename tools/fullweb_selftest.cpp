// fullweb_selftest — Monte Carlo estimator-calibration harness.
//
//   fullweb_selftest [--profile smoke|full] [--threads N] [--seed S]
//                    [--out validation_report.json] [--baseline PATH]
//                    [--baseline-rel-tol 1e-6] [--baseline-abs-tol 1e-9]
//                    [--check-determinism] [--verbose]
//
// Runs recovery experiments against synthetic ground truth (fGn with known
// H, Pareto/lognormal with known tail, true Poisson arrivals, stationary and
// trend+diurnal series) and gates every estimator and statistical test on
// documented bias bands, CI coverage, classification rate, and size/power.
// Exit codes: 0 = all gates pass (and baseline/determinism checks, when
// requested), 1 = a gate or check failed, 2 = usage error.
//
//   --check-determinism  runs the whole suite on a 1-thread and an N-thread
//                        executor and requires byte-identical reports.
//   --baseline PATH      compares the fresh report against a committed one
//                        (VALIDATION_baseline.json) and fails on drifted or
//                        missing metrics — the estimator-bias analogue of
//                        the committed perf baselines.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "support/cli.h"
#include "support/executor.h"
#include "support/table.h"
#include "validation/report.h"
#include "validation/selftest.h"

namespace {

using namespace fullweb;

void print_gate_table(const validation::ValidationReport& report,
                      bool verbose) {
  support::Table table({"gate", "observed", "lo", "hi", "verdict"});
  for (const auto* g : report.all_gates()) {
    if (!verbose && g->pass) continue;
    char observed[32], lo[32], hi[32];
    std::snprintf(observed, sizeof observed, "%.4f", g->observed);
    std::snprintf(lo, sizeof lo, "%.4f", g->lo);
    std::snprintf(hi, sizeof hi, "%.4f", g->hi);
    table.add_row({g->name, observed, lo, hi, g->pass ? "pass" : "FAIL"});
  }
  std::ostringstream out;
  table.print(out);
  std::fputs(out.str().c_str(), stdout);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  support::CliFlags flags;
  flags.define("profile", "smoke", "calibration profile: smoke | full");
  flags.define("threads", "0", "executor threads (0 = hardware concurrency)");
  flags.define("seed", "1592983569", "root seed (< 2^53)");
  flags.define("out", "validation_report.json",
               "report output path (empty = do not write)");
  flags.define("baseline", "", "baseline report to drift-check against");
  flags.define("baseline-rel-tol", "1e-6", "relative drift tolerance");
  flags.define("baseline-abs-tol", "1e-9", "absolute drift tolerance");
  flags.define("check-determinism", "false",
               "also run single-threaded and require byte-identical reports");
  flags.define("verbose", "false", "print passing gates too");
  if (!flags.parse(argc, argv)) return 2;

  validation::SelftestOptions options;
  const std::string profile = flags.get("profile");
  if (profile == "smoke") {
    options.profile = validation::Profile::kSmoke;
  } else if (profile == "full") {
    options.profile = validation::Profile::kFull;
  } else {
    std::fprintf(stderr, "fullweb_selftest: unknown profile '%s'\n",
                 profile.c_str());
    return 2;
  }
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  support::Executor executor(flags.get_count("threads"));
  options.executor = &executor;

  std::printf("fullweb_selftest: profile=%s seed=%llu threads=%zu\n",
              profile.c_str(),
              static_cast<unsigned long long>(options.seed),
              executor.threads());

  const auto report = validation::run_selftest(options);
  const std::string json = validation::report_to_json(report);

  bool ok = report.pass();
  print_gate_table(report, flags.get_bool("verbose"));
  std::printf("%zu/%zu gates passed\n",
              report.all_gates().size() - report.failed_gates(),
              report.all_gates().size());

  if (flags.get_bool("check-determinism")) {
    // Rerun on a *different* thread count: 8 workers if the main run was
    // serial, serial otherwise — so the comparison is never vacuous.
    const std::size_t alt_threads = executor.threads() == 1 ? 8 : 1;
    support::Executor alt(alt_threads);
    validation::SelftestOptions alt_options = options;
    alt_options.executor = &alt;
    const auto alt_report = validation::run_selftest(alt_options);
    if (validation::report_to_json(alt_report) == json) {
      std::printf("determinism: %zu-thread report is byte-identical to "
                  "%zu-thread report\n", executor.threads(), alt.threads());
    } else {
      std::printf("determinism: FAIL — %zu-thread and %zu-thread reports "
                  "differ\n", executor.threads(), alt.threads());
      ok = false;
    }
  }

  const std::string baseline_path = flags.get("baseline");
  if (!baseline_path.empty()) {
    const std::string baseline_text = slurp(baseline_path);
    if (baseline_text.empty()) {
      std::fprintf(stderr, "fullweb_selftest: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    const auto drift = validation::check_against_baseline(
        baseline_text, json, flags.get_double("baseline-rel-tol"),
        flags.get_double("baseline-abs-tol"));
    if (!drift.ok()) {
      std::fprintf(stderr, "fullweb_selftest: %s\n",
                   drift.error().message.c_str());
      return 2;
    }
    for (const auto& finding : drift.value().findings) {
      if (finding.kind == "new") continue;  // informational
      std::printf("baseline %s: %s (%s)\n", finding.kind.c_str(),
                  finding.path.c_str(), finding.detail.c_str());
    }
    std::printf("baseline: %zu metrics compared, %zu drifted, %zu missing\n",
                drift.value().compared, drift.value().drifted,
                drift.value().missing);
    if (drift.value().failed()) ok = false;
  }

  const std::string out_path = flags.get("out");
  if (!out_path.empty()) {
    if (auto status = validation::write_report(report, out_path); !status.ok()) {
      std::fprintf(stderr, "fullweb_selftest: %s\n",
                   status.error().message.c_str());
      return 2;
    }
    std::printf("report written to %s\n", out_path.c_str());
  }

  std::printf("fullweb_selftest: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
