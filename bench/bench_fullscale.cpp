// bench_fullscale: the paper-scale end-to-end headline.
//
// Synthesizes the WVU profile's full observed week (15.79M requests at
// --scale 1.0, Table 1's largest server), renders it once as CLF text and
// once as a FWC1 columnar file, and then times the pipeline stages a real
// reproduction run pays:
//
//   1. cold CLF ingest        — from_clf_stream, parse + intern + sessionize
//   2. fast vs reference parse — the SIMD/SWAR parser against the scalar
//                                reference over the identical bytes
//   3. columnar re-ingest     — from_columnar of the same traffic
//   4. full model fit         — fit_fullweb_model, every Figure 1 branch
//   5. validation             — the CLF and columnar datasets must be
//                                bit-identical tables and the fitted model
//                                must match the ingested volumes; any
//                                mismatch exits nonzero
//
// end_to_end is the sum of the stages a cold reproduction actually runs
// (CLF ingest + fit + validation). Every stage runs on the inline serial
// executor, so the two gated ratios, fast vs reference parse (>= 2x) and
// columnar vs CLF re-ingest (>= 3x), are single-threaded work reduction over
// identical bytes and hold on any host. Either one below its floor exits 1.
//
//   bench_fullscale --scale 0.02 --reps 2   # perf_smoke_bench_fullscale
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/fullweb_model.h"
#include "support/cli.h"
#include "support/executor.h"
#include "support/rng.h"
#include "support/strings.h"
#include "synth/generator.h"
#include "synth/profile.h"
#include "weblog/clf.h"
#include "weblog/clf_scan.h"
#include "weblog/dataset.h"

namespace {

using namespace fullweb;

using bench::now_seconds;
using bench::time_reps;

struct BenchRow {
  std::string name;
  double seconds = 0.0;
  double items_per_second = 0.0;
  double speedup = 0.0;  ///< 0 = not a ratio row
};

/// One pass over the slurped CLF text with either parser; returns the number
/// of lines that parsed, and accumulates a checksum so the work cannot be
/// optimized away. Line splitting is shared so the ratio isolates parsing.
template <typename ParseLine>
std::size_t parse_pass(const std::string& text, std::uint64_t& checksum,
                       ParseLine&& parse_line) {
  std::size_t ok = 0;
  const char* p = text.data();
  const char* end = p + text.size();
  while (p < end) {
    const char* nl = weblog::scan::find_byte_long(p, end, '\n');
    const auto line = support::trim(std::string_view(p, nl - p));
    p = nl < end ? nl + 1 : end;
    if (line.empty()) continue;
    if (parse_line(line, checksum)) ++ok;
  }
  return ok;
}

[[noreturn]] void die(const char* stage, const std::string& message) {
  std::fprintf(stderr, "bench_fullscale: %s: %s\n", stage, message.c_str());
  std::exit(1);
}

/// The fixture's CLF and columnar files. The pid in their names keeps two
/// concurrent runs apart. The one instance has static storage duration, so
/// std::exit (die() included) runs the destructor that removes them.
struct FixtureFiles {
  const std::string stem =
      "/tmp/fullweb_bench_fullscale." + std::to_string(::getpid());
  const std::string clf = stem + ".log";
  const std::string fwc = stem + ".fwc";
  ~FixtureFiles() {
    std::remove(clf.c_str());
    std::remove(fwc.c_str());
  }
};

constexpr double kParseFloor = 2.0;     ///< fast vs reference parser
constexpr double kColumnarFloor = 3.0;  ///< columnar vs CLF re-ingest

}  // namespace

int main(int argc, char** argv) {
  support::CliFlags flags;
  flags.define("scale", "1.0",
               "fraction of the WVU week (1.0 = the paper's 15.79M requests)");
  flags.define("reps", "3", "repetitions per ingest/parse timing (median)");
  if (!flags.parse(argc, argv)) return 2;

  const std::size_t reps = flags.get_count("reps", 1);
  const double scale = flags.get_double("scale");
  static const FixtureFiles files;
  const std::string& clf_path = files.clf;
  const std::string& fwc_path = files.fwc;

  std::vector<BenchRow> rows;

  // Fixture: the WVU week as CLF text. Written streaming so peak memory is
  // the workload, not the rendered text.
  std::uint64_t clf_bytes = 0;
  std::size_t clf_lines = 0;
  const double synth_seconds = now_seconds();
  {
    support::Rng rng(20060625);
    synth::GeneratorOptions gen;
    gen.duration = 7.0 * 86400.0;
    gen.scale = scale;
    auto workload =
        synth::generate_workload(synth::ServerProfile::wvu(), gen, rng);
    if (!workload.ok()) die("fixture", workload.error().message);
    std::ofstream os(clf_path, std::ios::binary | std::ios::trunc);
    support::Rng rng2(20060626);
    for (const auto& e : synth::to_log_entries(workload.value(), rng2)) {
      const std::string line = weblog::to_clf_line(e);
      os << line << '\n';
      clf_bytes += line.size() + 1;
      ++clf_lines;
    }
    if (!os) die("fixture", "cannot write " + clf_path);
  }
  const double synth_elapsed = now_seconds() - synth_seconds;
  rows.push_back({"fullscale/synthesize_write", synth_elapsed,
                  static_cast<double>(clf_lines) / synth_elapsed, 0.0});
  std::printf("fixture: %zu requests, %.2f GiB CLF\n", clf_lines,
              static_cast<double>(clf_bytes) / (1024.0 * 1024.0 * 1024.0));

  // 1) Cold CLF ingest: the full text -> tables path.
  support::Executor ex(1);
  const std::vector<std::string> paths = {clf_path};
  const double clf_seconds = time_reps(reps, [&] {
    weblog::StreamIngestOptions opts;
    opts.reader.executor = &ex;
    auto ds = weblog::Dataset::from_clf_stream("wvu-week", paths, opts);
    if (!ds.ok()) die("clf ingest", ds.error().message);
  });
  rows.push_back({"fullscale/ingest_clf_cold", clf_seconds,
                  static_cast<double>(clf_lines) / clf_seconds, 0.0});

  // Keep one ingested dataset for the fit/validation stages below.
  weblog::StreamIngestOptions ingest_opts;
  ingest_opts.reader.executor = &ex;
  auto ds_clf = weblog::Dataset::from_clf_stream("wvu-week", paths, ingest_opts);
  if (!ds_clf.ok()) die("clf ingest", ds_clf.error().message);
  const std::size_t fixture_requests = ds_clf.value().requests().size();
  const std::size_t fixture_sessions = ds_clf.value().sessions().size();

  // 2) Fast vs reference parser over the identical bytes.
  double parse_speedup = 0.0;
  {
    std::ifstream in(clf_path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    if (text.size() != clf_bytes) die("parse floor", "fixture reread mismatch");

    std::uint64_t fast_sum = 0, ref_sum = 0;
    std::size_t fast_ok = 0, ref_ok = 0;
    weblog::ClfLineParser parser;
    const double fast_seconds = time_reps(reps, [&] {
      fast_sum = 0;
      parser.clear_owned();
      fast_ok = parse_pass(text, fast_sum,
                           [&](std::string_view line, std::uint64_t& sum) {
                             weblog::ClfRecord rec;
                             if (!parser.parse(line, rec)) return false;
                             sum += static_cast<std::uint64_t>(rec.status) +
                                    rec.bytes;
                             return true;
                           });
      parser.clear_owned();
    });
    const double ref_seconds = time_reps(reps, [&] {
      ref_sum = 0;
      ref_ok = parse_pass(text, ref_sum,
                          [&](std::string_view line, std::uint64_t& sum) {
                            auto e = weblog::parse_clf_line_reference(line);
                            if (!e.ok()) return false;
                            sum += static_cast<std::uint64_t>(
                                       e.value().status) +
                                   e.value().bytes;
                            return true;
                          });
    });
    if (fast_ok != clf_lines || ref_ok != clf_lines || fast_sum != ref_sum)
      die("parse floor", "fast and reference parsers disagree on the corpus");
    parse_speedup = ref_seconds / fast_seconds;
    rows.push_back({"fullscale/parse_fast_vs_reference", fast_seconds,
                    static_cast<double>(clf_lines) / fast_seconds,
                    parse_speedup});
  }

  // 3) FWC1 columnar re-ingest of the identical dataset.
  auto written = ds_clf.value().to_columnar(fwc_path);
  if (!written.ok()) die("columnar store", written.error().message);
  const double fwc_seconds = time_reps(reps, [&] {
    auto ds = weblog::Dataset::from_columnar(fwc_path);
    if (!ds.ok()) die("columnar ingest", ds.error().message);
  });
  rows.push_back({"fullscale/ingest_columnar_vs_clf", fwc_seconds,
                  static_cast<double>(fixture_requests) / fwc_seconds,
                  clf_seconds / fwc_seconds});

  // 4) Full model fit: every Figure 1 branch at paper scale (timed once —
  // at --scale 1.0 this is minutes, and the number is a headline, not a
  // regression gate).
  core::FullWebOptions fit_opts;
  fit_opts.executor = &ex;
  support::Rng fit_rng(42);
  const double fit_start = now_seconds();
  auto model = core::fit_fullweb_model(ds_clf.value(), fit_rng, fit_opts);
  if (!model.ok()) die("model fit", model.error().message);
  const double fit_seconds = now_seconds() - fit_start;
  rows.push_back({"fullscale/model_fit", fit_seconds,
                  static_cast<double>(fixture_requests) / fit_seconds, 0.0});

  // 5) Validation: the two ingest paths must agree bit-for-bit and the model
  // must describe the ingested volumes.
  const double validate_start = now_seconds();
  {
    auto ds_fwc = weblog::Dataset::from_columnar(fwc_path);
    if (!ds_fwc.ok()) die("validate", ds_fwc.error().message);
    const auto& a = ds_clf.value();
    const auto& b = ds_fwc.value();
    if (a.requests().size() != b.requests().size() ||
        a.sessions().size() != b.sessions().size())
      die("validate", "CLF and columnar table sizes differ");
    for (std::size_t i = 0; i < a.requests().size(); ++i) {
      const auto& ra = a.requests()[i];
      const auto& rb = b.requests()[i];
      if (ra.time != rb.time || ra.client != rb.client ||
          ra.status != rb.status || ra.bytes != rb.bytes)
        die("validate", "request " + std::to_string(i) + " differs");
    }
    for (std::size_t i = 0; i < a.sessions().size(); ++i) {
      const auto& sa = a.sessions()[i];
      const auto& sb = b.sessions()[i];
      if (sa.client != sb.client || sa.start != sb.start || sa.end != sb.end ||
          sa.requests != sb.requests || sa.bytes != sb.bytes)
        die("validate", "session " + std::to_string(i) + " differs");
    }
    if (model.value().total_requests != fixture_requests ||
        model.value().total_sessions != fixture_sessions)
      die("validate", "model volumes disagree with the ingested tables");
    if (model.value().mb_transferred <= 0.0)
      die("validate", "model transferred zero bytes");
  }
  const double validate_seconds = now_seconds() - validate_start;
  rows.push_back({"fullscale/validate", validate_seconds,
                  static_cast<double>(fixture_requests) / validate_seconds,
                  0.0});

  rows.push_back({"fullscale/end_to_end",
                  clf_seconds + fit_seconds + validate_seconds,
                  static_cast<double>(fixture_requests) /
                      (clf_seconds + fit_seconds + validate_seconds),
                  0.0});

  for (const BenchRow& r : rows) {
    std::printf("%-36s %10.3f s  %12.0f items/s", r.name.c_str(), r.seconds,
                r.items_per_second);
    if (r.speedup > 0.0) std::printf("  speedup %.2fx", r.speedup);
    std::printf("\n");
  }

  const bool parse_ok = bench::meets_floor(
      "fullscale/parse_fast_vs_reference", parse_speedup, kParseFloor);
  const bool columnar_ok =
      bench::meets_floor("fullscale/ingest_columnar_vs_clf",
                         clf_seconds / fwc_seconds, kColumnarFloor);
  return parse_ok && columnar_ok ? 0 : 1;
}
