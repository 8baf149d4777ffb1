// bench_fullscale: the paper-scale end-to-end headline.
//
// Synthesizes the WVU profile's full observed week (15.79M requests at
// --scale 1.0, Table 1's largest server), renders it once as CLF text and
// once as a FWC1 columnar file, and then times the pipeline stages a real
// reproduction run pays:
//
//   1. cold CLF ingest        — from_clf_stream, parse + intern + sessionize
//   2. fast vs reference parse — the SIMD/SWAR parser against the scalar
//                                reference over the identical bytes; the
//                                ratio is pure parser work reduction, so it
//                                holds on any host and carries the
//                                --min-speedup floor (see bench/CMakeLists)
//   3. columnar re-ingest     — from_columnar of the same traffic
//   4. full model fit         — fit_fullweb_model, every Figure 1 branch
//   5. validation             — the CLF and columnar datasets must be
//                                bit-identical tables and the fitted model
//                                must match the ingested volumes; any
//                                mismatch exits nonzero
//
// end_to_end is the sum of the stages a cold reproduction actually runs
// (CLF ingest + fit + validation). Output is the JSON bench_compare gates:
//
//   bench_fullscale --scale 1.0 --json-out BENCH_fullscale.json
//   bench_compare --min-speedup 2 --name parse_fast BENCH_fullscale.json
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/fullweb_model.h"
#include "support/cli.h"
#include "support/executor.h"
#include "support/json.h"
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
  double speedup = 0.0;  ///< 0 = omit the field
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

}  // namespace

int main(int argc, char** argv) {
  support::CliFlags flags;
  flags.define("scale", "1.0",
               "fraction of the WVU week (1.0 = the paper's 15.79M requests)");
  flags.define("threads", "1", "executor width for ingest and model fit");
  flags.define("reps", "3", "repetitions per ingest/parse timing (median)");
  flags.define("json-out", "BENCH_fullscale.json",
               "results JSON for bench_compare");
  if (!flags.parse(argc, argv)) return 2;

  const auto reps = static_cast<std::size_t>(flags.get_int("reps"));
  const auto threads = static_cast<std::size_t>(flags.get_int("threads"));
  const double scale = flags.get_double("scale");
  const std::string clf_path = "/tmp/fullweb_bench_fullscale.log";
  const std::string fwc_path = "/tmp/fullweb_bench_fullscale.fwc";

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
  support::Executor ex(threads);
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

  // 2) Fast vs reference parser over the identical bytes. This is the
  // tentpole's floor: the ratio is single-threaded work reduction.
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
    rows.push_back({"fullscale/parse_fast_vs_reference", fast_seconds,
                    static_cast<double>(clf_lines) / fast_seconds,
                    ref_seconds / fast_seconds});
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

  const std::string json_path = flags.get("json-out");
  if (!json_path.empty()) {
    support::JsonWriter w;
    w.begin_object();
    w.key("context");
    w.begin_object();
#ifdef NDEBUG
    w.field("binary_build_type", "release");
#else
    w.field("binary_build_type", "debug");
#endif
    w.field("profile", "WVU");
    w.field("scale", scale);
    w.field("fixture_requests", fixture_requests);
    w.field("fixture_sessions", fixture_sessions);
    w.field("clf_bytes", static_cast<std::size_t>(clf_bytes));
    w.field("fwc_bytes", static_cast<std::size_t>(written.value()));
    w.field("threads", threads);
    w.field("reps", reps);
    w.field("simd", weblog::scan::compiled_with_avx2() ? "avx2+swar" : "swar");
    w.end_object();
    w.key("benchmarks");
    w.begin_array();
    for (const BenchRow& r : rows) {
      w.begin_object();
      w.field("name", r.name);
      w.field("real_time", r.seconds * 1e9);
      w.field("time_unit", "ns");
      w.field("items_per_second", r.items_per_second);
      if (r.speedup > 0.0) w.field("speedup", r.speedup);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::ofstream json(json_path, std::ios::binary | std::ios::trunc);
    json << std::move(w).str() << '\n';
    if (!json) die("json", "cannot write " + json_path);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
