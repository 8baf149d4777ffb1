// bench_compare — the gates over the perf drivers' JSON result files.
//
//   bench_compare --min-speedup 2.5 --name fullweb_fit/threads:4 RESULTS.json
//
// reads the "speedup" field the benches write per measured row and exits 1
// when any matching row is below the floor — or when no row matches at all,
// so a renamed benchmark cannot silently disarm the gate. A matching row
// without a speedup was not measured (bench_parallel_scaling at a thread
// count above the host's); when every matching row is like that, the tool
// prints SKIPPED and exits 77, ctest's SKIP_RETURN_CODE for the gate. The
// floor must be a finite number > 0.
//
//   bench_compare --check-release BENCH_fullscale.json BENCH_online.json
//
// audits committed baselines for build type: exits 1 when any file was
// recorded by a debug binary (the context.binary_build_type stamp that
// bench_fullscale and bench_online write from NDEBUG). Files without the
// stamp pass — old baselines are not retroactively failed.
//
// A usage error or an unreadable or malformed file exits 2. The gate logic
// lives in bench_compare_lib (unit-tested by test_tools_bench_compare); this
// file is only flag handling.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_compare_lib.h"
#include "support/strings.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: bench_compare --min-speedup FLOOR [--name SUBSTRING] "
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
  std::optional<double> min_speedup;
  bool check_release_mode = false;
  std::string name_filter;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--min-speedup" && i + 1 < argc) {
      min_speedup = fullweb::support::parse_double(argv[++i]);
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

  const bool floor_ok =
      min_speedup && std::isfinite(*min_speedup) && *min_speedup > 0.0;
  if (!floor_ok || positional.size() != 1) {
    usage();
    return 2;
  }
  const auto text = slurp(positional[0]);
  if (!text) {
    std::fprintf(stderr, "bench_compare: cannot open %s\n",
                 positional[0].c_str());
    return 2;
  }
  const auto report =
      fullweb::benchcmp::check_min_speedup(*text, *min_speedup, name_filter);
  if (!report.ok()) {
    std::fprintf(stderr, "%s (%s)\n", report.error().message.c_str(),
                 positional[0].c_str());
    return 2;
  }
  std::fputs(fullweb::benchcmp::render_speedup(report.value(), *min_speedup,
                                               name_filter)
                 .c_str(),
             stdout);
  if (report.value().skipped()) return 77;
  return report.value().failed() ? 1 : 0;
}
