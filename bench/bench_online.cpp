// bench_online: the online layer's headline number.
//
// The point of src/online is that a fresh estimate over an unbounded stream
// costs O(window + sketch), not O(stream). This bench measures that claim
// directly: the same synthetic ClarkNet stream is replayed once through an
// OnlineAnalyzer (per-event sketch/ring updates plus a snapshot at each of
// --checkpoints evenly spaced points), and once through the batch
// alternative — at each checkpoint, rebuild the counts-per-bin series over
// the whole prefix and re-run KPSS, variance-time Hurst, FRS, Hill, and the
// LLCD fit from scratch, the way the offline pipeline would if asked for a
// fresh answer mid-stream.
//
// The gated ratio "stream/online_vs_batch" = batch-refit / online is a
// work-reduction speedup over identical traffic and checkpoints, so it
// holds on any host; it grows with stream length because the batch side is
// O(checkpoints * stream) while the online side is bounded by the window.
// Below kOnlineFloor the bench exits 1.
//
//   bench_online --hours 6 --scale 0.3 --checkpoints 8 --reps 2
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "lrd/variance_time.h"
#include "online/analyzer.h"
#include "online/frs_memory.h"
#include "stats/kpss.h"
#include "support/cli.h"
#include "support/rng.h"
#include "synth/generator.h"
#include "synth/profile.h"
#include "tail/hill.h"
#include "tail/llcd.h"
#include "timeseries/series.h"

namespace {

using namespace fullweb;

using bench::time_reps;

struct BenchRow {
  std::string name;
  double seconds = 0.0;
  double items_per_second = 0.0;
  double speedup = 0.0;  ///< 0 = not a ratio row
};

constexpr double kOnlineFloor = 2.0;  ///< online vs batch refit

/// Consume a value so the optimizer cannot drop the estimator calls.
volatile double g_sink = 0.0;

template <typename T>
void sink(const support::Result<T>& r, double v) {
  g_sink = r.ok() ? v : -v;
}

}  // namespace

int main(int argc, char** argv) {
  support::CliFlags flags;
  flags.define("hours", "24", "stream duration (hours)");
  flags.define("scale", "0.5", "synthetic volume scale");
  flags.define("checkpoints", "16", "estimate points along the stream");
  flags.define("reps", "3", "repetitions per timing (median reported)");
  if (!flags.parse(argc, argv)) return 2;

  const std::size_t reps = flags.get_count("reps", 1);
  const std::size_t checkpoints = flags.get_count("checkpoints", 1);

  // Fixture: one synthetic ClarkNet stream, replayed identically by every
  // timed path below. Event order defines sketch item identity, so the
  // online path sees exactly the stream the batch path re-reads.
  std::vector<double> times, bytes;
  {
    support::Rng rng(2026);
    synth::GeneratorOptions gen;
    gen.duration = flags.get_double("hours") * 3600.0;
    gen.scale = flags.get_double("scale");
    auto ds = synth::generate_dataset(synth::ServerProfile::clarknet(), gen, rng);
    if (!ds.ok()) {
      std::fprintf(stderr, "bench_online: fixture: %s\n",
                   ds.error().message.c_str());
      return 1;
    }
    const auto& requests = ds.value().requests();
    times.reserve(requests.size());
    bytes.reserve(requests.size());
    for (const auto& r : requests) {
      times.push_back(r.time);
      bytes.push_back(static_cast<double>(r.bytes));
    }
  }
  const std::size_t n = times.size();
  if (n < checkpoints) {
    std::fprintf(stderr, "bench_online: fixture too small (%zu events)\n", n);
    return 1;
  }
  const online::OnlineOptions opts;  // production defaults
  const std::size_t window_bins = opts.block_bins * opts.window_blocks;
  std::printf("fixture: %zu events over %.1f h, %zu checkpoints, "
              "window %zu bins\n",
              n, flags.get_double("hours"), checkpoints, window_bins);

  // Checkpoint j fires after event index marks[j] (evenly spaced; the last
  // one lands on the final event).
  std::vector<std::size_t> marks;
  for (std::size_t j = 1; j <= checkpoints; ++j)
    marks.push_back(j * n / checkpoints - 1);

  std::vector<BenchRow> rows;

  // 1) Pure ingest: per-event ring + sketch update cost, no snapshots.
  const double update_seconds = time_reps(reps, [&] {
    online::OnlineAnalyzer analyzer(opts, support::Rng(7));
    for (std::size_t i = 0; i < n; ++i) analyzer.add(times[i], bytes[i]);
    g_sink = static_cast<double>(analyzer.records());
  });
  rows.push_back({"stream/online_update", update_seconds,
                  static_cast<double>(n) / update_seconds, 0.0});

  // 2) Online: ingest plus a full snapshot (KPSS + VT Hurst + FRS over the
  // window, Hill + LLCD + quantiles from the sketch) at each checkpoint.
  const double online_seconds = time_reps(reps, [&] {
    online::OnlineAnalyzer analyzer(opts, support::Rng(7));
    std::size_t next = 0;
    for (std::size_t i = 0; i < n; ++i) {
      analyzer.add(times[i], bytes[i]);
      if (next < marks.size() && i == marks[next]) {
        const auto snap = analyzer.snapshot();
        g_sink = snap.p99;
        ++next;
      }
    }
  });
  rows.push_back({"stream/online_snapshots", online_seconds,
                  static_cast<double>(n) / online_seconds, 0.0});

  // 3) Batch: at each checkpoint, refit the whole prefix from scratch —
  // rebuild the 1 s counts series, then KPSS, variance-time Hurst, and FRS
  // over it, and Hill + LLCD over all transfer sizes so far. This is what
  // "just rerun the offline pipeline" costs per fresh answer.
  const double batch_seconds = time_reps(reps, [&] {
    for (const std::size_t mark : marks) {
      const std::span<const double> prefix_times(times.data(), mark + 1);
      const double t0 = std::floor(times.front());
      const double t1 = std::floor(times[mark]) + 1.0;
      const auto counts =
          timeseries::counts_per_bin(prefix_times, t0, t1, opts.bin_seconds);
      sink(stats::kpss_test(counts, opts.kpss_null), 1.0);
      sink(lrd::variance_time_hurst(counts), 2.0);
      sink(online::frs_memory_from_counts(
               counts, online::FrsOptions{opts.frs_scales}),
           3.0);
      std::vector<double> sizes(bytes.begin(),
                                bytes.begin() + static_cast<std::ptrdiff_t>(mark + 1));
      sink(tail::hill_estimate(sizes, opts.hill), 4.0);
      sink(tail::llcd_fit(sizes), 5.0);
    }
  });
  rows.push_back({"stream/batch_refit", batch_seconds,
                  static_cast<double>(n) / batch_seconds, 0.0});

  // 4) The headline ratio: identical checkpoints, identical traffic.
  rows.push_back({"stream/online_vs_batch", online_seconds,
                  static_cast<double>(n) / online_seconds,
                  batch_seconds / online_seconds});

  for (const BenchRow& r : rows) {
    std::printf("%-28s %10.4f s  %12.0f items/s", r.name.c_str(), r.seconds,
                r.items_per_second);
    if (r.speedup > 0.0) std::printf("  speedup %.2fx", r.speedup);
    std::printf("\n");
  }

  return bench::meets_floor("stream/online_vs_batch",
                            batch_seconds / online_seconds, kOnlineFloor)
             ? 0
             : 1;
}
