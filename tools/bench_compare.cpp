// bench_compare — diff two google-benchmark JSON result files and flag
// regressions.
//
//   bench_compare BASELINE.json NEW.json [--threshold 0.10] [--metric real_time]
//
// Matches benchmarks by name, compares the chosen per-iteration time metric,
// and prints one row per benchmark with the ratio new/old. Exits 1 when any
// benchmark regressed by more than the threshold (default +10%) or when a
// baseline benchmark is missing from the new run (a rename or a silently
// dropped bench must not shrink the gate); benchmarks only present in the
// new run are informational. A CI regression gate is:
//
//   ./bench/bench_micro --benchmark_out=new.json --benchmark_out_format=json
//   ./tools/bench_compare BENCH_micro.json new.json
//
// A second mode gates absolute scaling instead of relative regressions:
//
//   bench_compare --min-speedup 2.5 --name fullweb_fit/threads:4 RESULTS.json
//
// reads the "speedup" field the benches write per measured row and exits 1
// when any matching row is below the floor — or when no row matches at all,
// so a renamed benchmark cannot silently disarm the gate. A matching row
// without a speedup was not measured (bench_parallel_scaling at a thread
// count above the host's); when every matching row is like that, the tool
// prints SKIPPED and exits 77, ctest's SKIP_RETURN_CODE for the gate.
//
// A third mode audits committed baselines for build type:
//
//   bench_compare --check-release BENCH_ingest.json BENCH_fullscale.json
//
// exits 1 when any file was recorded by a debug binary (see
// detect_build_type in the lib: the custom context.binary_build_type stamp
// wins over libbenchmark's library_build_type). Files without either field
// pass — old baselines are not retroactively failed. Compare mode applies
// the same check to its BASELINE argument: a debug baseline makes every
// release run look improved, so it fails the gate outright.
//
// The comparison and parsing logic lives in bench_compare_lib (unit-tested
// by test_tools_bench_compare); this file is only flag handling.
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_compare_lib.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: bench_compare BASELINE.json NEW.json "
               "[--threshold 0.10] [--metric real_time|cpu_time]\n"
               "       bench_compare --min-speedup FLOOR [--name SUBSTRING] "
               "RESULTS.json\n"
               "       bench_compare --check-release RESULTS.json...\n");
}

std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  double threshold = 0.10;
  std::string metric = "real_time";
  double min_speedup = 0.0;
  bool speedup_mode = false;
  bool check_release_mode = false;
  std::string name_filter;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold" && i + 1 < argc) {
      threshold = std::stod(argv[++i]);
    } else if (arg == "--metric" && i + 1 < argc) {
      metric = argv[++i];
    } else if (arg == "--min-speedup" && i + 1 < argc) {
      min_speedup = std::stod(argv[++i]);
      speedup_mode = true;
    } else if (arg == "--name" && i + 1 < argc) {
      name_filter = argv[++i];
    } else if (arg == "--check-release") {
      check_release_mode = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      positional.push_back(arg);
    }
  }

  if (check_release_mode) {
    if (positional.empty()) {
      usage();
      return 2;
    }
    int debug_files = 0;
    for (const std::string& path : positional) {
      const auto text = slurp(path);
      if (!text) {
        std::fprintf(stderr, "bench_compare: cannot open %s\n", path.c_str());
        return 2;
      }
      const std::string type = fullweb::benchcmp::detect_build_type(*text);
      const bool debug = type == "debug";
      if (debug) ++debug_files;
      std::printf("%-40s %10s  %s\n", path.c_str(),
                  type.empty() ? "unknown" : type.c_str(),
                  debug ? "DEBUG BASELINE" : "ok");
    }
    if (debug_files > 0)
      std::fprintf(stderr,
                   "bench_compare: %d baseline file(s) recorded by a debug "
                   "binary — re-record in Release\n",
                   debug_files);
    return debug_files > 0 ? 1 : 0;
  }

  if (speedup_mode) {
    if (positional.size() != 1) {
      usage();
      return 2;
    }
    std::ifstream in(positional[0]);
    if (!in) {
      std::fprintf(stderr, "bench_compare: cannot open %s\n",
                   positional[0].c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto report = fullweb::benchcmp::check_min_speedup(
        buffer.str(), min_speedup, name_filter);
    if (!report.ok()) {
      std::fprintf(stderr, "%s (%s)\n", report.error().message.c_str(),
                   positional[0].c_str());
      return 2;
    }
    std::fputs(fullweb::benchcmp::render_speedup(report.value(), min_speedup,
                                                 name_filter)
                   .c_str(),
               stdout);
    if (report.value().skipped()) return 77;
    return report.value().failed() ? 1 : 0;
  }

  if (positional.size() != 2) {
    usage();
    return 2;
  }

  const auto baseline_text = slurp(positional[0]);
  if (!baseline_text) {
    std::fprintf(stderr, "bench_compare: cannot open %s\n",
                 positional[0].c_str());
    return 2;
  }
  const auto baseline =
      fullweb::benchcmp::parse_results(*baseline_text, metric);
  if (!baseline.ok()) {
    std::fprintf(stderr, "%s (%s)\n", baseline.error().message.c_str(),
                 positional[0].c_str());
    return 2;
  }
  const bool debug_baseline = fullweb::benchcmp::is_debug_build(*baseline_text);
  if (debug_baseline)
    std::fprintf(stderr,
                 "bench_compare: WARNING: baseline %s was recorded by a debug "
                 "binary; comparison is meaningless — failing the gate\n",
                 positional[0].c_str());
  if (baseline.value().empty()) {
    // A baseline with zero usable rows (wrong --metric, empty array) would
    // make every comparison vacuously pass — refuse instead.
    std::fprintf(stderr,
                 "bench_compare: no usable benchmarks in %s for metric %s\n",
                 positional[0].c_str(), metric.c_str());
    return 2;
  }
  const auto fresh = fullweb::benchcmp::load_results(positional[1], metric);
  if (!fresh.ok()) {
    std::fprintf(stderr, "%s\n", fresh.error().message.c_str());
    return 2;
  }

  const auto report =
      fullweb::benchcmp::compare(baseline.value(), fresh.value(), threshold);
  std::fputs(fullweb::benchcmp::render(report, threshold).c_str(), stdout);
  return report.failed() || debug_baseline ? 1 : 0;
}
