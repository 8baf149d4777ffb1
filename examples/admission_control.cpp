// Session-based admission control under heavy-tailed session lengths.
//
// Cherkasova & Phaal's session-based admission control ([5], [6]) was
// evaluated assuming exponentially distributed session lengths; §5.2.1
// shows that assumption is wrong — session length is heavy-tailed. This
// example replays our synthetic sessions through a capacity-limited server
// (queueing::simulate_admission) under two overload policies:
//
//   request dropping: overloaded seconds shed individual requests — long
//                     sessions almost surely lose one and abort.
//   session-based AC: overloaded seconds defer NEW sessions; admitted
//                     sessions are always served ([5]'s goal: "increase the
//                     chances that longer sessions will be completed").
//
// It then contrasts the true heavy-tailed session-length distribution with
// the exponential fit used by [5]/[6]: the exponential model wildly
// underestimates the long-session mass that session-AC protects.
//
//   ./admission_control --capacity-factor 0.5 --seed 5
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <unordered_map>
#include <vector>

#include "queueing/admission.h"
#include "stats/descriptive.h"
#include "stats/distributions.h"
#include "support/cli.h"
#include "support/executor.h"
#include "support/table.h"
#include "synth/generator.h"
#include "tail/llcd.h"

int main(int argc, char** argv) {
  using namespace fullweb;

  support::CliFlags flags;
  flags.define("capacity-factor", "0.5",
               "per-second capacity as a fraction of the PEAK per-second load");
  flags.define("seed", "5", "random seed");
  flags.define("hours", "24", "hours of traffic");
  flags.define("threads", "0",
               "analysis threads (0 = hardware concurrency, 1 = serial)");
  if (!flags.parse(argc, argv)) return 2;
  support::Executor::set_global_threads(flags.get_count("threads"));

  support::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  synth::GeneratorOptions gen;
  gen.duration = flags.get_double("hours") * 3600.0;
  auto workload = synth::generate_workload(synth::ServerProfile::wvu(), gen, rng);
  if (!workload) {
    std::fprintf(stderr, "generation failed: %s\n",
                 workload.error().message.c_str());
    return 1;
  }
  const auto& w = workload.value();

  auto tagged = queueing::attribute_requests(w.requests, w.true_sessions);
  if (!tagged) {
    std::fprintf(stderr, "attribution failed: %s\n",
                 tagged.error().message.c_str());
    return 1;
  }

  // Peak per-second load determines the configured capacity.
  std::unordered_map<long long, std::size_t> per_second;
  for (const auto& r : tagged.value())
    ++per_second[static_cast<long long>(r.time)];
  std::size_t peak = 0;
  for (const auto& [sec, n] : per_second) peak = std::max(peak, n);

  queueing::AdmissionOptions opts;
  opts.capacity_per_second = static_cast<std::size_t>(std::max(
      1.0, flags.get_double("capacity-factor") * static_cast<double>(peak)));
  std::printf("requests: %zu  sessions: %zu  peak load: %zu req/s  capacity: "
              "%zu req/s\n\n",
              tagged.value().size(), w.true_sessions.size(), peak,
              opts.capacity_per_second);

  support::Table table({"policy", "completed", "completion %",
                        "long-session completion %", "requests rejected"});
  for (auto policy : {queueing::AdmissionPolicy::kRequestDropping,
                      queueing::AdmissionPolicy::kSessionBased}) {
    opts.policy = policy;
    support::Rng sim_rng(42);
    auto outcome = queueing::simulate_admission(tagged.value(), w.true_sessions,
                                                opts, sim_rng);
    if (!outcome) {
      std::fprintf(stderr, "simulation failed: %s\n",
                   outcome.error().message.c_str());
      return 1;
    }
    char pct[16], lpct[16];
    std::snprintf(pct, sizeof pct, "%.1f%%",
                  100.0 * outcome.value().completion_rate());
    std::snprintf(lpct, sizeof lpct, "%.1f%%",
                  100.0 * outcome.value().long_completion_rate());
    table.add_row({policy == queueing::AdmissionPolicy::kSessionBased
                       ? "session-based AC"
                       : "request dropping",
                   std::to_string(outcome.value().completed), pct, lpct,
                   std::to_string(outcome.value().requests_rejected)});
  }
  table.print(std::cout);

  // Why the exponential assumption misleads: tail-mass comparison.
  std::vector<double> lengths;
  for (const auto& s : w.true_sessions)
    if (s.length() > 0) lengths.push_back(s.length());
  auto exp_fit = stats::Exponential::fit_mle(lengths);
  auto llcd = tail::llcd_fit(lengths);
  if (exp_fit.ok() && llcd.ok()) {
    std::sort(lengths.begin(), lengths.end());
    const double x = stats::quantile_sorted(lengths, 0.99);
    const double empirical = 0.01;
    const double exp_pred = exp_fit.value().ccdf(x);
    std::printf(
        "\nheavy-tail reality check (paper §5.2.1): P[session > %.0f s]\n"
        "  empirical: %.3g   exponential fit ([5]'s assumption): %.3g\n"
        "  LLCD tail index alpha = %.2f (infinite variance if < 2)\n"
        "The exponential model underestimates the 99th-percentile session\n"
        "mass by a factor of %.0f — session-based AC is protecting exactly\n"
        "the sessions that model says barely exist.\n",
        x, empirical, exp_pred, llcd.value().alpha,
        empirical / std::max(exp_pred, 1e-12));
  }
  return 0;
}
