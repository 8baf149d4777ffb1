// Shared scaffolding for the experiment drivers.
//
// Every bench regenerates one table or figure of the paper from synthetic
// workloads. Drivers share the seed, the per-server bench scales, and the
// "paper vs measured" table conventions so EXPERIMENTS.md can be assembled
// from their outputs directly.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "support/cli.h"
#include "support/rng.h"
#include "synth/generator.h"
#include "weblog/dataset.h"

namespace fullweb::bench {

inline constexpr std::uint64_t kDefaultSeed = 20060625;  // DSN'06 week

struct BenchContext {
  double scale_multiplier = 1.0;  ///< multiplies each profile's bench_scale
  double days = 7.0;
  std::uint64_t seed = kDefaultSeed;
  std::size_t threads = 0;        ///< analysis threads (0 = hardware)
  std::string csv_dir;            ///< when non-empty, figure data is dumped
                                  ///< as CSV files here
};

/// Standard flags shared by all drivers (--scale, --days, --seed,
/// --threads). Returns false when parsing fails (usage already printed).
/// --threads resizes the global executor, so every analysis call in the
/// driver runs at the requested parallelism.
bool parse_bench_flags(int argc, const char* const* argv, BenchContext* ctx,
                       support::CliFlags* extra = nullptr);

/// Generate one server at bench scale. Deterministic in (ctx.seed, name).
weblog::Dataset generate_server(const synth::ServerProfile& profile,
                                const BenchContext& ctx);

/// Generate all four paper servers (volume-descending order).
std::vector<weblog::Dataset> generate_all_servers(const BenchContext& ctx);

/// Print the standard bench header with reproduction context.
void print_header(const std::string& title, const std::string& paper_ref,
                  const BenchContext& ctx);

/// Steady-clock seconds since an arbitrary epoch, for wall-clock timing.
double now_seconds();

/// Median-of-reps wall time for one call.
template <typename Fn>
double time_reps(std::size_t reps, Fn&& fn) {
  std::vector<double> times;
  times.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const double start = now_seconds();
    fn();
    times.push_back(now_seconds() - start);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Format helpers for table cells.
std::string fmt(double v, int digits = 3);
std::string fmt_h(double h);  ///< Hurst estimates: 3 decimals

/// When ctx.csv_dir is set, write the given equal-length columns as
/// `<csv_dir>/<name>.csv` (the directory must already exist) and print the
/// destination. No-op otherwise.
void maybe_write_csv(const BenchContext& ctx, const std::string& name,
                     const std::vector<std::string>& header,
                     const std::vector<std::vector<double>>& columns);

}  // namespace fullweb::bench
