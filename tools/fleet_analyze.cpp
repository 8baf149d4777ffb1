// fleet_analyze: shard-and-merge FULL-Web analysis over many servers.
//
// Inputs are one dataset per shard, routed by extension: `.fwc` files load
// through the binary columnar store (no CLF parsing), anything else is
// ingested as CLF text via the streaming reader. `--synthetic N` generates
// N server shards instead (cycling the four calibrated profiles), which is
// how the determinism gate runs hermetically under ctest.
//
// The full fit pipeline runs per shard on one work-stealing executor;
// per-shard results merge into a fleet report (core/fleet.h). With
// `--check-determinism` the whole fleet analysis runs twice — serial and
// with `--threads` workers — and the two JSON reports must be
// byte-identical, exiting non-zero otherwise.
//
// `--online` switches to the streaming estimation layer (src/online):
// every shard's request stream replays through a per-shard OnlineAnalyzer
// emitting periodic rolling-window snapshots, and the per-shard tail
// sketches merge into one fleet-wide sketch whose Hill/LLCD/quantile
// estimates close the report. With `--check-determinism` the whole online
// pass reruns with the shard merge order REVERSED and the two documents
// must be byte-identical — the merge-law (associative + commutative)
// acceptance check at fleet scale.
//
//   fleet_analyze --synthetic 8 --fast --check-determinism --threads 8
//   fleet_analyze --synthetic 4 --online --check-determinism
//   fleet_analyze --json fleet.json logs/*.fwc
//   fleet_analyze --write-store /data/store logs/vhost*.log
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "online/analyzer.h"
#include "store/columnar.h"
#include "support/cli.h"
#include "support/executor.h"
#include "support/json.h"
#include "support/rng.h"
#include "synth/generator.h"
#include "synth/profile.h"
#include "tail/hill.h"
#include "tail/llcd.h"
#include "weblog/dataset.h"

namespace {

using fullweb::core::FleetOptions;
using fullweb::core::FleetReport;
using fullweb::weblog::Dataset;

std::string shard_basename(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base = base.substr(0, dot);
  return base;
}

fullweb::support::Result<std::vector<Dataset>> load_shards(
    const std::vector<std::string>& paths) {
  std::vector<Dataset> shards;
  shards.reserve(paths.size());
  for (const std::string& path : paths) {
    if (fullweb::store::has_columnar_extension(path)) {
      auto ds = Dataset::from_columnar(path);
      if (!ds.ok()) return ds.error();
      shards.push_back(std::move(ds).value());
    } else {
      const std::string clf_paths[] = {path};
      auto ds = Dataset::from_clf_stream(shard_basename(path), clf_paths);
      if (!ds.ok())
        return fullweb::support::Error{path + ": " + ds.error().message,
                                       ds.error().category};
      shards.push_back(std::move(ds).value());
    }
  }
  return shards;
}

std::vector<Dataset> synthesize_shards(std::size_t n, std::uint64_t seed,
                                       double hours, double scale) {
  std::vector<Dataset> shards;
  const auto profiles = fullweb::synth::ServerProfile::all_four();
  for (std::size_t i = 0; i < n; ++i) {
    fullweb::support::Rng rng(seed + i);
    fullweb::synth::GeneratorOptions opt;
    opt.duration = hours * 3600.0;
    opt.scale = scale;
    opt.start_time = 1073865600.0 + static_cast<double>(i) * opt.duration;
    auto ds = fullweb::synth::generate_dataset(profiles[i % profiles.size()],
                                               opt, rng);
    if (!ds.ok()) {
      std::fprintf(stderr, "synthetic shard %zu: %s\n", i,
                   ds.error().message.c_str());
      continue;
    }
    shards.push_back(std::move(ds).value());
  }
  return shards;
}

FleetOptions make_options(fullweb::support::Executor* ex, bool fast,
                          double interval_hours) {
  FleetOptions opt;
  opt.executor = ex;
  opt.fit.interval_seconds = interval_hours * 3600.0;
  if (fast) {
    opt.fit.run_poisson = false;
    opt.fit.run_error_analysis = false;
    opt.fit.arrivals.run_aggregation_sweep = false;
    opt.fit.arrivals.hurst.run_whittle = false;
    opt.fit.tails.run_curvature = false;
  }
  return opt;
}

void print_summary(const FleetReport& r) {
  std::printf("fleet: %zu shards, %zu requests, %zu sessions, %.1f MB\n",
              r.shards.size(), r.total_requests, r.total_sessions,
              static_cast<double>(r.total_bytes) / (1024.0 * 1024.0));
  std::printf("  window      [%.0f, %.0f)\n", r.t0, r.t1);
  std::printf("  LRD         requests %zu/%zu shards, sessions %zu/%zu\n",
              r.shards_lrd_requests, r.shards.size(), r.shards_lrd_sessions,
              r.shards.size());
  std::printf("  heavy tail  bytes/session on %zu/%zu shards\n",
              r.shards_heavy_tail_bytes, r.shards.size());
  std::printf("  mean H      requests %.3f, sessions %.3f\n", r.mean_request_h,
              r.mean_session_h);
  std::printf("  req/s       mean %.3f var %.3f max %.0f\n", r.rps.mean,
              r.rps.variance(), r.rps.max);
  for (const auto& s : r.shards)
    std::printf("  shard %-20s %8zu req %6zu sess  H(req) %.3f%s\n",
                s.name.c_str(), s.requests, s.sessions,
                s.model.request_arrivals.hurst_stationary.mean_h(),
                s.model.request_arrivals.long_range_dependent() ? "  LRD" : "");
}

/// The streaming counterpart of analyze_fleet: per-shard OnlineAnalyzers
/// with RngSplitter-carved identity streams, periodic snapshots, and a
/// fleet-merged tail sketch. `reverse_merge` only changes the order the
/// per-shard sketches fold into the fleet sketch; by the sketch's merge
/// laws the output must not change, which the determinism check exploits.
std::string run_online_fleet(const std::vector<Dataset>& shards,
                             std::uint64_t seed,
                             std::size_t snapshots_per_shard,
                             bool reverse_merge) {
  namespace online = fullweb::online;
  namespace support = fullweb::support;
  namespace tail = fullweb::tail;

  const online::OnlineOptions opts;  // production defaults
  support::Rng root(seed);
  support::RngSplitter streams(root, 0);

  support::JsonWriter w;
  w.begin_object();
  w.field("schema", "fullweb-fleet-online-v1");
  w.field("seed", static_cast<std::size_t>(seed));
  w.field("shards", shards.size());

  // Shards are always analyzed (and reported) in input order; carving each
  // analyzer's rng by shard index keeps sketch identity salts disjoint
  // across shards, so the fleet merge never conflates items.
  std::vector<online::TailSketch> sketches;
  sketches.reserve(shards.size());
  w.key("shard_reports");
  w.begin_array();
  for (std::size_t i = 0; i < shards.size(); ++i) {
    online::OnlineAnalyzer analyzer(opts, streams.stream(i));
    const auto& requests = shards[i].requests();
    const std::size_t stride =
        std::max<std::size_t>(1, requests.size() / (snapshots_per_shard + 1));

    w.begin_object();
    w.field("name", shards[i].name());
    w.field("requests", requests.size());
    w.key("snapshots");
    w.begin_array();
    std::size_t emitted = 0;
    for (std::size_t j = 0; j < requests.size(); ++j) {
      analyzer.add(requests[j].time, static_cast<double>(requests[j].bytes));
      if ((j + 1) % stride == 0 && emitted < snapshots_per_shard) {
        analyzer.snapshot().write_json(w);
        ++emitted;
      }
    }
    w.end_array();
    w.key("final");
    analyzer.snapshot().write_json(w);
    w.end_object();
    sketches.push_back(analyzer.sketch());
  }
  w.end_array();

  online::TailSketch fleet(opts.tail_top_k, opts.tail_body_capacity);
  for (std::size_t i = 0; i < sketches.size(); ++i) {
    const std::size_t pick = reverse_merge ? sketches.size() - 1 - i : i;
    if (auto merged = fleet.merge(sketches[pick]); !merged.ok())
      std::fprintf(stderr, "fleet_analyze: sketch merge: %s\n",
                   merged.error().message.c_str());
  }

  w.key("fleet_tail");
  w.begin_object();
  w.field("count", static_cast<std::size_t>(fleet.count()));
  w.field("rejected", static_cast<std::size_t>(fleet.rejected()));
  w.field("retained", fleet.retained());
  w.field("min", fleet.min());
  w.field("max", fleet.max());
  w.key("hill");
  const auto top = fleet.top_values();
  const auto plot = tail::hill_plot_from_top(
      top, static_cast<std::size_t>(fleet.count()));
  const auto hill =
      plot.ok() ? tail::hill_estimate_from_plot(plot.value())
                : support::Result<tail::HillEstimate>(plot.error());
  if (hill.ok()) {
    w.begin_object();
    w.field("alpha", hill.value().alpha);
    w.field("k_low", hill.value().k_low);
    w.field("k_high", hill.value().k_high);
    w.field("stabilized", hill.value().stabilized);
    w.end_object();
  } else {
    w.begin_object();
    w.field("error", hill.error().message);
    w.end_object();
  }
  w.key("llcd");
  support::Rng sample_rng = streams.stream(shards.size());
  const auto sample = fleet.sample_values(opts.tail_subsample, sample_rng);
  if (const auto llcd = tail::llcd_fit(sample); llcd.ok()) {
    w.begin_object();
    w.field("alpha", llcd.value().alpha);
    w.field("stderr_alpha", llcd.value().stderr_alpha);
    w.field("r_squared", llcd.value().r_squared);
    w.end_object();
  } else {
    w.begin_object();
    w.field("error", llcd.error().message);
    w.end_object();
  }
  w.key("quantiles");
  w.begin_object();
  static constexpr double kQs[] = {0.50, 0.90, 0.99};
  const std::vector<double> q = fleet.quantiles(kQs);
  w.field("p50", q[0]);
  w.field("p90", q[1]);
  w.field("p99", q[2]);
  w.end_object();
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

}  // namespace

int main(int argc, char** argv) {
  fullweb::support::CliFlags flags;
  flags.define("synthetic", "0", "generate N synthetic shards instead of reading inputs");
  flags.define("seed", "12345", "master RNG seed (also seeds synthetic shards)");
  flags.define("threads", "0", "executor threads (0 = hardware)");
  flags.define("interval-hours", "4", "Low/Med/High interval length");
  flags.define("hours", "3", "synthetic shard duration (hours)");
  flags.define("scale", "0.5", "synthetic profile volume scale");
  flags.define("fast", "false", "skip Monte-Carlo branches (poisson, curvature, sweeps)");
  flags.define("json", "", "write the fleet report JSON to this path ('-' = stdout)");
  flags.define("no-shards", "false", "omit the per-shard array from the JSON");
  flags.define("write-store", "", "also write each shard to DIR/<name>.fwc");
  flags.define("check-determinism", "false",
               "run serial and with --threads, require byte-identical reports");
  flags.define("online", "false",
               "stream shards through the online estimation layer instead of "
               "the batch fit pipeline");
  flags.define("online-snapshots", "4",
               "periodic rolling-window snapshots per shard in --online mode");
  if (!flags.parse(argc, argv)) return 2;
  // Dataset::partition counts whole seconds: an interval under one second,
  // or one that is not finite, cuts the window into no intervals at all.
  const double interval_hours = flags.get_double("interval-hours");
  if (const double seconds = interval_hours * 3600.0;
      !(seconds >= 1.0) || !std::isfinite(seconds)) {
    std::fprintf(stderr,
                 "flag --interval-hours expects a finite length of at least "
                 "one second, got '%s'\n",
                 flags.get("interval-hours").c_str());
    return 2;
  }

  const std::size_t n_synth = flags.get_count("synthetic");
  std::vector<Dataset> shards;
  if (n_synth > 0) {
    shards = synthesize_shards(n_synth, static_cast<std::uint64_t>(
                                            flags.get_int("seed")),
                               flags.get_double("hours"),
                               flags.get_double("scale"));
  } else {
    auto loaded = load_shards(flags.positional());
    if (!loaded.ok()) {
      std::fprintf(stderr, "fleet_analyze: %s\n", loaded.error().message.c_str());
      return 1;
    }
    shards = std::move(loaded).value();
  }
  if (shards.empty()) {
    std::fprintf(stderr, "fleet_analyze: no shards (pass inputs or --synthetic N)\n");
    return 1;
  }

  const std::string store_dir = flags.get("write-store");
  if (!store_dir.empty()) {
    for (const Dataset& ds : shards) {
      const std::string out = store_dir + "/" + ds.name() + ".fwc";
      auto written = ds.to_columnar(out);
      if (!written.ok()) {
        std::fprintf(stderr, "fleet_analyze: %s\n",
                     written.error().message.c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote %s (%llu bytes)\n", out.c_str(),
                   static_cast<unsigned long long>(written.value()));
    }
  }

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const std::size_t threads = flags.get_count("threads");
  const bool fast = flags.get_bool("fast");
  const bool include_shards = !flags.get_bool("no-shards");

  if (flags.get_bool("online")) {
    const std::size_t snapshots = flags.get_count("online-snapshots");
    const std::string json = run_online_fleet(shards, seed, snapshots, false);
    if (flags.get_bool("check-determinism")) {
      const std::string replay = run_online_fleet(shards, seed, snapshots, true);
      if (json != replay) {
        std::fprintf(stderr,
                     "fleet_analyze: NONDETERMINISM — reversed-merge online "
                     "report differs from forward-merge report\n");
        return 3;
      }
      std::fprintf(stderr,
                   "determinism: forward- and reverse-merge online reports "
                   "are byte-identical (%zu bytes)\n",
                   json.size());
    }
    std::printf("fleet online: %zu shards analyzed\n", shards.size());
    const std::string online_path = flags.get("json");
    if (online_path == "-") {
      std::fputs(json.c_str(), stdout);
      std::fputc('\n', stdout);
    } else if (!online_path.empty()) {
      std::ofstream os(online_path, std::ios::binary | std::ios::trunc);
      os << json << '\n';
      if (!os) {
        std::fprintf(stderr, "fleet_analyze: cannot write %s\n",
                     online_path.c_str());
        return 1;
      }
    }
    return 0;
  }

  fullweb::support::Executor pool(threads == 0 ? 0 : threads);
  fullweb::support::Rng rng(seed);
  auto report =
      fullweb::core::analyze_fleet(shards, rng, make_options(&pool, fast, interval_hours));
  if (!report.ok()) {
    std::fprintf(stderr, "fleet_analyze: %s\n", report.error().message.c_str());
    return 1;
  }
  const std::string json =
      fullweb::core::fleet_report_json(report.value(), include_shards);

  if (flags.get_bool("check-determinism")) {
    fullweb::support::Executor serial(1);
    fullweb::support::Rng rng2(seed);
    auto replay = fullweb::core::analyze_fleet(
        shards, rng2, make_options(&serial, fast, interval_hours));
    if (!replay.ok()) {
      std::fprintf(stderr, "fleet_analyze: serial replay failed: %s\n",
                   replay.error().message.c_str());
      return 1;
    }
    const std::string json2 =
        fullweb::core::fleet_report_json(replay.value(), include_shards);
    if (json != json2) {
      std::fprintf(stderr,
                   "fleet_analyze: NONDETERMINISM — %zu-thread and serial "
                   "reports differ\n",
                   pool.threads());
      return 3;
    }
    std::fprintf(stderr, "determinism: %zu-thread and serial reports are "
                         "byte-identical (%zu bytes)\n",
                 pool.threads(), json.size());
  }

  print_summary(report.value());
  const std::string json_path = flags.get("json");
  if (json_path == "-") {
    std::fputs(json.c_str(), stdout);
    std::fputc('\n', stdout);
  } else if (!json_path.empty()) {
    std::ofstream os(json_path, std::ios::binary | std::ios::trunc);
    os << json << '\n';
    if (!os) {
      std::fprintf(stderr, "fleet_analyze: cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  return 0;
}
