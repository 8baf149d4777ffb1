// Parallel-scaling bench: the end-to-end FullWebModel fit, measured at
// several thread counts.
//
// A row's thread count is the number of threads that run the fit. The
// waiting caller helps run tasks, so Executor(w - 1) runs w threads; a
// 1-worker pool is the inline serial executor, so width 1 is Executor(1)
// and width 2 cannot be built. The sweep is width 1, each power of two from
// 4 up to --max-threads, and --max-threads itself when it is at least 3.
//
// One discarded warm-up fit runs first: the first fit of a process pays for
// cold caches. Then kRounds rounds each run every width once, the order
// reversed each round so a drifting host speed weighs all widths alike.
// Each row reports the median and IQR of its rounds, and its speedup is the
// width-1 median over its own. A width above the host's hardware threads
// still runs, so its report is still checked, but its speedup is not
// measured: the table says so and its JSON row carries no "speedup" field.
//
// Every fit must render the same report as the warm-up, to the last bit
// (exit 1 otherwise): an executor changes throughput, never results.
//
//   bench_parallel_scaling --max-threads 8 --timings-json spans.json
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/fullweb_model.h"
#include "stats/descriptive.h"
#include "support/executor.h"
#include "support/json.h"
#include "support/timing.h"

namespace {

using namespace fullweb;

/// Timed rounds; each runs every width once.
constexpr std::size_t kRounds = 5;

struct Fit {
  double seconds = 0.0;
  std::string report;
  std::string stage_table;   // StageTimings holds a mutex; keep the renderings
  std::string timings_json;  // full span tree
};

/// One end-to-end fit on `width` runnable threads.
Fit fit_once(const weblog::Dataset& dataset, std::uint64_t seed,
             std::size_t width) {
  support::Executor ex(width == 1 ? 1 : width - 1);
  support::StageTimings timings;
  core::FullWebOptions opts;
  opts.executor = &ex;
  opts.timings = &timings;
  opts.tails.curvature_replicates = 99;

  Fit out;
  support::Rng rng(seed);
  const double start = bench::now_seconds();
  auto model = core::fit_fullweb_model(dataset, rng, opts);
  if (!model.ok()) {
    std::fprintf(stderr, "fatal: fit failed: %s\n",
                 model.error().message.c_str());
    std::exit(1);
  }
  out.report = core::render_report(model.value());
  out.seconds = bench::now_seconds() - start;
  out.stage_table = timings.table();
  out.timings_json = timings.to_json();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchContext ctx;
  support::CliFlags flags;
  flags.define("server", "CSEE", "WVU | ClarkNet | CSEE | NASA-Pub2");
  flags.define("max-threads", "8",
               "highest thread count in the 1,4,8,.. sweep (0 = hardware)");
  flags.define("json-out", "BENCH_scaling.json",
               "results JSON for bench_compare (empty = skip)");
  flags.define("timings-json", "",
               "dump a timed 1-thread fit's stage span tree to this file "
               "(empty = skip)");
  if (!bench::parse_bench_flags(argc, argv, &ctx, &flags)) return 2;

  synth::ServerProfile profile = synth::ServerProfile::csee();
  const std::string which = flags.get("server");
  for (const auto& p : synth::ServerProfile::all_four())
    if (p.name == which) profile = p;

  const std::size_t host_threads = support::Executor(0).threads();
  std::size_t max_threads =
      static_cast<std::size_t>(flags.get_int("max-threads"));
  if (max_threads == 0) max_threads = host_threads;

  bench::print_header("Parallel scaling: FullWebModel end to end",
                      "Figure 1 pipeline as a task graph (this reproduction)",
                      ctx);

  const auto dataset = bench::generate_server(profile, ctx);
  std::printf("dataset: %s, %zu requests, %zu sessions\n",
              dataset.name().c_str(), dataset.requests().size(),
              dataset.sessions().size());
  std::printf("host threads: %zu\n", host_threads);
  std::printf("%zu timed rounds after 1 warm-up fit, order reversed each "
              "round\n\n",
              kRounds);

  std::vector<std::size_t> widths = {1};
  for (std::size_t w = 4; w <= max_threads; w *= 2) widths.push_back(w);
  if (max_threads >= 3 && widths.back() != max_threads)
    widths.push_back(max_threads);

  const Fit warmup = fit_once(dataset, ctx.seed, 1);
  std::vector<std::vector<double>> seconds(widths.size());
  std::vector<char> identical(widths.size(), 1);
  Fit serial;  // the first timed width-1 fit
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < widths.size(); ++k) {
      const std::size_t i = round % 2 == 0 ? k : widths.size() - 1 - k;
      Fit fit = fit_once(dataset, ctx.seed, widths[i]);
      seconds[i].push_back(fit.seconds);
      if (fit.report != warmup.report) identical[i] = 0;
      if (i == 0 && serial.report.empty()) serial = std::move(fit);
    }
  }
  std::printf("per-stage wall-clock, timed 1-thread fit:\n%s\n",
              serial.stage_table.c_str());

  struct Row {
    std::size_t width;
    double median;
    double iqr;
    bool measured;  ///< the host can run this many threads at once
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < widths.size(); ++i)
    rows.push_back({widths[i], stats::quantile(seconds[i], 0.5),
                    stats::quantile(seconds[i], 0.75) -
                        stats::quantile(seconds[i], 0.25),
                    widths[i] <= host_threads});
  const double serial_median = rows.front().median;

  std::printf("%-10s %12s %10s %13s %14s\n", "threads", "median (s)",
              "IQR (s)", "speedup", "bit-identical");
  bool all_identical = true;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    all_identical = all_identical && identical[i];
    char speedup[32] = "not measured";
    if (r.measured)
      std::snprintf(speedup, sizeof speedup, "%.2fx", serial_median / r.median);
    std::printf("%-10zu %12.3f %10.3f %13s %14s\n", r.width, r.median, r.iqr,
                speedup, identical[i] ? "yes" : "NO");
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "\nFATAL: a parallel fit diverged from the serial fit — the "
                 "determinism invariant is broken\n");
    return 1;
  }
  std::printf("\nall fits bit-identical to the serial fit\n");

  const std::string timings_path = flags.get("timings-json");
  if (!timings_path.empty()) {
    std::ofstream spans(timings_path);
    if (!spans) {
      std::fprintf(stderr, "warning: cannot write %s\n", timings_path.c_str());
    } else {
      spans << serial.timings_json << "\n";
      std::printf("wrote %s\n", timings_path.c_str());
    }
  }

  // Machine-readable mirror of the table, in the result-file shape
  // tools/bench_compare gates (--min-speedup).
  const std::string json_path = flags.get("json-out");
  if (!json_path.empty()) {
    support::JsonWriter w;
    w.begin_object();
    w.key("context");
    w.begin_object();
    w.field("server", dataset.name());
    w.field("seed", static_cast<double>(ctx.seed));
    w.field("requests", dataset.requests().size());
    w.field("max_threads", max_threads);
    w.field("host_threads", host_threads);
    w.field("rounds", kRounds);
    w.end_object();
    w.key("benchmarks");
    w.begin_array();
    for (const Row& r : rows) {
      w.begin_object();
      w.field("name", "fullweb_fit/threads:" + std::to_string(r.width));
      w.field("real_time", r.median * 1e9);
      w.field("real_time_iqr", r.iqr * 1e9);
      w.field("time_unit", "ns");
      w.field("items_per_second",
              static_cast<double>(dataset.requests().size()) / r.median);
      if (r.measured) w.field("speedup", serial_median / r.median);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::ofstream json(json_path);
    if (!json) {
      std::fprintf(stderr, "warning: cannot write %s\n", json_path.c_str());
    } else {
      json << std::move(w).str() << "\n";
      std::printf("wrote %s\n", json_path.c_str());
    }
  }
  return 0;
}
