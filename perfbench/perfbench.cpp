// perfbench: the fullweb benchmark harness.
//
// run.py drives this binary in two modes and does all of the statistics
// (medians, quartiles, percentiles, self times); this file only generates
// inputs, calls the library, checks its outputs and records raw samples.
//
//   perfbench setup --workload W --seed N --dir D --out F [--reps R]
//       Synthesizes the workload's traffic on one thread and writes it to D
//       as CLF text, R times over (each rep is timed; the files of the last
//       rep are kept).
//   perfbench run --workload W --seed N --dir D --log L --out F --seconds S
//                 --requests R --sessions Q [--trace-out T]
//       Untraced (no --trace-out): runs the workload's pipeline for S
//       seconds after one discarded warm-up pass, one width-1 pass to every
//       three parallel ones, checks every pass's output, and writes the raw
//       samples to F.
//       Traced (--trace-out): wraps each call into a module's public
//       functions in a span, decomposes the model fit layer by layer at
//       width 1, and writes the spans to T at exit.
//
// The program under test only ever sees the files written by `setup`.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/error_analysis.h"
#include "core/fleet.h"
#include "core/fullweb_model.h"
#include "core/stationary.h"
#include "lrd/estimator_suite.h"
#include "online/analyzer.h"
#include "poisson/poisson_test.h"
#include "stats/kpss.h"
#include "stats/periodogram.h"
#include "support/executor.h"
#include "support/json.h"
#include "support/rng.h"
#include "synth/generator.h"
#include "synth/profile.h"
#include "tail/curvature.h"
#include "tail/hill.h"
#include "tail/llcd.h"
#include "timeseries/pyramid.h"
#include "weblog/clf.h"
#include "weblog/clf_reader.h"
#include "weblog/dataset.h"
#include "weblog/sessionizer.h"

namespace {

using namespace fullweb;

constexpr double kStartTime = 1073865600.0;  // 12-Jan-2004, as in Table 1
constexpr double kDay = 86400.0;
constexpr double kSnapshotEvery = 300.0;     // stream seconds per snapshot
constexpr int kExtraIngests = 3;            // ingest-only samples per parallel pass
constexpr std::size_t kParallelPerSerial = 3;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed by every thread of this process.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kBatch, kStream };

struct Workload {
  std::string name;
  Kind kind = Kind::kBatch;
  synth::ServerProfile profile;
  double scale = 1.0;  ///< fraction of the profile's weekly volume
};

Workload find_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "wvu_week") {
    w.profile = synth::ServerProfile::wvu();
    w.scale = 0.03;
  } else if (name == "clarknet_stream") {
    w.kind = Kind::kStream;
    w.profile = synth::ServerProfile::clarknet();
    w.scale = 0.1;
  } else {
    die("unknown workload '" + name + "'");
  }
  return w;
}

// ---------------------------------------------------------------------------
// Span recorder: spans live in memory and are written once, at exit. All
// spans are opened on the main thread (each wraps one call into the
// library), so parenting is a stack.

struct Span {
  std::string name;    ///< "<module>.<function>"
  std::string metric;  ///< per-layer metric fed by this span ("" = none)
  double start = 0.0;
  double end = 0.0;
  long parent = -1;
};

class SpanRecorder {
 public:
  bool enabled = false;

  long open(std::string name, std::string metric) {
    if (!enabled) return -1;
    const long parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), std::move(metric), wall_now(), 0.0, parent});
    stack_.push_back(static_cast<long>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(long id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = wall_now();
    stack_.pop_back();
  }

  void write(const std::string& path, const std::string& workload) const {
    support::JsonWriter w;
    w.begin_object();
    w.field("workload", workload);
    w.key("spans");
    w.begin_array();
    for (const Span& s : spans_) {
      w.begin_object();
      w.field("name", s.name);
      w.field("metric", s.metric);
      w.field("start", s.start);
      w.field("end", s.end);
      w.field("parent", static_cast<double>(s.parent));
      w.field("workload", workload);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << std::move(w).str() << '\n';
    if (!os) die("cannot write " + path);
  }

 private:
  std::vector<Span> spans_;
  std::vector<long> stack_;
};

SpanRecorder g_spans;

/// RAII span around one library call.
class Traced {
 public:
  Traced(std::string name, std::string metric = "")
      : id_(g_spans.open(std::move(name), std::move(metric))) {}
  ~Traced() { g_spans.close(id_); }
  Traced(const Traced&) = delete;
  Traced& operator=(const Traced&) = delete;

 private:
  long id_;
};

template <typename Fn>
auto traced(const char* name, const char* metric, Fn&& fn) {
  Traced span(name, metric);
  return fn();
}

// ---------------------------------------------------------------------------
// Output checks and failure accounting

struct Checks {
  std::size_t attempted = 0;  ///< lines read + fits/loads + output checks
  std::size_t failed = 0;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  void fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  /// A library call that returns Result: one attempted operation.
  template <typename T>
  bool call(const support::Result<T>& r, const std::string& what) {
    ++attempted;
    if (r.ok()) return true;
    fail(what + ": " + r.error().message);
    return false;
  }
  /// Lines dropped by the reader count as failed operations.
  void lines(const weblog::IngestStats& s) {
    attempted += s.lines;
    failed += s.malformed;
    if (s.malformed != 0) fail(s.summary());
  }
};

// ---------------------------------------------------------------------------
// Setup: synthesize the traffic and write it out

struct Fixture {
  std::vector<std::string> logs;  ///< CLF files, in stream order
  std::size_t requests = 0;
  std::size_t sessions = 0;
  std::uint64_t log_bytes = 0;
};

void write_clf(const std::vector<weblog::LogEntry>& entries, std::ofstream& os,
               std::uint64_t& bytes) {
  std::string line;
  for (const auto& e : entries) {
    line = weblog::to_clf_line(e);
    line += '\n';
    os.write(line.data(), static_cast<std::streamsize>(line.size()));
    bytes += line.size();
  }
}

Fixture write_fixture(const Workload& wl, std::uint64_t seed, const std::string& dir) {
  Fixture fx;
  support::Rng root(seed);
  support::RngSplitter streams(root, 0);
  synth::GeneratorOptions gen;
  gen.scale = wl.scale;
  gen.duration = 7.0 * kDay;
  gen.start_time = kStartTime;
  support::Rng traffic = streams.stream(0);
  auto workload = synth::generate_workload(wl.profile, gen, traffic);
  if (!workload) die("generate: " + workload.error().message);
  fx.requests = workload.value().requests.size();
  fx.sessions = workload.value().true_sessions.size();
  support::Rng render = streams.stream(1);
  const std::string path = dir + "/" + wl.name + ".log";
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  write_clf(synth::to_log_entries(workload.value(), render), os, fx.log_bytes);
  if (!os) die("cannot write " + path);
  fx.logs.push_back(path);
  return fx;
}

// ---------------------------------------------------------------------------
// Model digest and verdicts

class Digest {
 public:
  void add(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    add_bits(bits);
  }
  void add(std::uint64_t x) { add_bits(x); }
  void add(bool b) { add_bits(b ? 1 : 0); }
  void add(const lrd::HurstSuiteResult& suite) {
    add(static_cast<std::uint64_t>(suite.estimates.size()));
    for (const auto& e : suite.estimates) {
      add(e.h);
      add(e.ci95_halfwidth.value_or(-1.0));
      add(e.r_squared.value_or(-1.0));
    }
  }
  void add(const core::ArrivalAnalysis& a) {
    add(a.hurst_raw);
    add(a.hurst_stationary);
    add(a.stationarity.kpss_raw.statistic);
    add(a.stationarity.trend_slope);
    add(a.stationarity.seasonal_strength);
    add(static_cast<std::uint64_t>(a.stationarity.period));
    for (const auto* sweep : {&a.whittle_sweep, &a.abry_veitch_sweep})
      for (const auto& p : *sweep) add(p.estimate.h);
  }
  void add(const core::TailAnalysis& t) {
    add(t.available);
    if (t.llcd) {
      add(t.llcd->alpha);
      add(t.llcd->r_squared);
      add(t.llcd->theta);
    }
    if (t.hill) {
      add(t.hill->alpha);
      add(t.hill->stabilized);
    }
    for (const auto* c : {&t.curvature_pareto, &t.curvature_lognormal})
      if (c->has_value()) {
        add((*c)->curvature);
        add((*c)->p_value);
      }
  }
  void add(const core::IntervalTails& t) {
    add(static_cast<std::uint64_t>(t.sessions));
    add(t.length);
    add(t.requests);
    add(t.bytes);
  }
  void add(const core::PoissonBattery& b) {
    add(b.available);
    for (const auto* c : {&b.hourly_uniform, &b.hourly_deterministic,
                          &b.tenmin_uniform, &b.tenmin_deterministic}) {
      add(c->ran);
      add(c->result.independent);
      add(c->result.exponential);
      add(static_cast<std::uint64_t>(c->result.usable_intervals));
    }
  }
  void add(const core::FullWebModel& m) {
    add(static_cast<std::uint64_t>(m.total_requests));
    add(static_cast<std::uint64_t>(m.total_sessions));
    add(m.mb_transferred);
    add(m.request_arrivals);
    add(m.session_arrivals);
    for (const auto* side : {&m.request_poisson, &m.session_poisson})
      for (const auto& [load, battery] : *side) add(battery);
    for (const auto& [load, tails] : m.interval_tails) add(tails);
    add(m.week_tails);
    if (m.errors) {
      add(m.errors->request_error_rate);
      add(m.errors->session_reliability);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void add_bits(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The paper's three verdict families for one fitted model, as a string:
/// LRD (requests, sessions), Poisson per Low/Med/High (requests, sessions;
/// P = consistent, N = not, - = not applicable) and heavy tails of the week
/// rows (length, requests, bytes per session).
std::string model_verdicts(const core::FullWebModel& m) {
  std::string v = "lrd:";
  v += m.request_arrivals.long_range_dependent() ? 'Y' : 'N';
  v += m.session_arrivals.long_range_dependent() ? 'Y' : 'N';
  for (const auto* side : {&m.request_poisson, &m.session_poisson}) {
    v += " poisson:";
    for (const auto& [load, b] : *side)
      v += !b.any_ran() ? '-' : (b.poisson_all() ? 'P' : 'N');
  }
  v += " heavy:";
  for (const auto* t : {&m.week_tails.length, &m.week_tails.requests,
                        &m.week_tails.bytes})
    v += t->heavy_tailed() ? 'Y' : 'N';
  return v;
}

std::string stream_verdicts(const online::OnlineSnapshot& s) {
  std::string v = "kpss:";
  v += !s.kpss.value ? '-' : (s.kpss.value->stationary_at_5pct() ? 'S' : 'N');
  v += " lrd:";
  v += !s.hurst_vt.value ? '-' : (s.hurst_vt.value->indicates_lrd() ? 'Y' : 'N');
  v += " heavy:";
  v += !s.llcd.value ? '-' : (s.llcd.value->infinite_variance() ? 'Y' : 'N');
  return v;
}

// ---------------------------------------------------------------------------
// One pass of each workload's pipeline

struct PassResult {
  double wall = 0.0;
  double ingest_wall = 0.0;        ///< batch: from_clf_stream alone
  std::vector<double> snapshot_ms; ///< stream: each snapshot() call
  std::size_t items = 0;           ///< requests / records
  std::string output;              ///< bytes compared across widths
  std::string verdicts;
};

core::FullWebOptions fit_options(support::Executor& ex) {
  core::FullWebOptions o;
  o.executor = &ex;
  return o;
}

/// from_clf_stream over the fixture's logs at the executor's width, with
/// its output checks: every line parsed, and the generated request and
/// session counts recovered.
std::optional<weblog::Dataset> ingest(const Fixture& fx, support::Executor& ex,
                                      Checks& checks) {
  weblog::StreamIngestOptions options;
  options.reader.executor = &ex;
  weblog::StreamIngestReport report;
  auto ds = traced("weblog.from_clf_stream", "", [&] {
    return weblog::Dataset::from_clf_stream("log", fx.logs, options, &report);
  });
  if (!checks.call(ds, "from_clf_stream")) return std::nullopt;
  for (const auto& s : report.files) checks.lines(s);
  checks.expect(report.invalid_time == 0, "invalid timestamps in ingest");
  checks.expect(ds.value().requests().size() == fx.requests,
                "ingested request count differs from the fixture");
  checks.expect(ds.value().sessions().size() == fx.sessions,
                "ingested session count differs from the fixture");
  return std::move(ds).value();
}

PassResult batch_pass(const Fixture& fx, support::Executor& ex, std::uint64_t seed,
                      Checks& checks) {
  PassResult r;
  const double t0 = wall_now();
  auto ds = ingest(fx, ex, checks);
  r.ingest_wall = wall_now() - t0;
  if (!ds) return r;
  support::Rng rng(seed);
  auto model = traced("core.fit_fullweb_model", "", [&] {
    return core::fit_fullweb_model(*ds, rng, fit_options(ex));
  });
  r.wall = wall_now() - t0;
  r.items = ds->requests().size();
  if (!checks.call(model, "fit_fullweb_model")) return r;
  Digest digest;
  digest.add(model.value());
  r.output = core::render_report(model.value()) + "\ndigest " +
             std::to_string(digest.value());
  r.verdicts = model_verdicts(model.value());
  return r;
}

PassResult stream_pass(const Fixture& fx, support::Executor& ex, std::uint64_t seed,
                       Checks& checks) {
  PassResult r;
  const double t0 = wall_now();
  online::OnlineAnalyzer analyzer(online::OnlineOptions{}, support::Rng(seed));
  weblog::ClfReaderOptions reader;
  reader.executor = &ex;
  double next_snapshot = -1.0;
  r.snapshot_ms.reserve(2100);
  for (const auto& path : fx.logs) {
    auto stats = traced("weblog.read_clf_records", "", [&] {
      return weblog::read_clf_records(path, reader, [&](const weblog::ClfRecord& rec) {
        analyzer.add(rec);
        if (next_snapshot < 0.0) next_snapshot = rec.timestamp + kSnapshotEvery;
        if (rec.timestamp >= next_snapshot) {
          next_snapshot += kSnapshotEvery;
          const double s0 = wall_now();
          (void)analyzer.snapshot();
          r.snapshot_ms.push_back(1e3 * (wall_now() - s0));
        }
      });
    });
    if (checks.call(stats, "read_clf_records")) checks.lines(stats.value());
  }
  const auto final_snapshot = analyzer.snapshot();
  r.wall = wall_now() - t0;
  r.items = analyzer.records();
  checks.expect(r.items == fx.requests, "streamed record count differs from the fixture");
  checks.expect(final_snapshot.late_dropped == 0 && !final_snapshot.saw_unsorted,
                "stream reported late or unsorted records");
  r.output = final_snapshot.to_json();
  r.verdicts = stream_verdicts(final_snapshot);
  return r;
}

/// The fleet configuration of bench_fleet and the fleet_determinism gate:
/// each shard gets the arrival and tail-index estimates, without the
/// Monte-Carlo and Poisson branches, so many small fits share the pool.
core::FleetOptions fleet_options(support::Executor& ex) {
  core::FleetOptions o;
  o.executor = &ex;
  o.fit.run_poisson = false;
  o.fit.run_error_analysis = false;
  o.fit.arrivals.run_aggregation_sweep = false;
  o.fit.arrivals.hurst.run_whittle = false;
  o.fit.tails.run_curvature = false;
  return o;
}

PassResult run_pass(const Workload& wl, const Fixture& fx, support::Executor& ex,
                    std::uint64_t seed, Checks& checks) {
  switch (wl.kind) {
    case Kind::kBatch: return batch_pass(fx, ex, seed, checks);
    case Kind::kStream: return stream_pass(fx, ex, seed, checks);
  }
  return {};
}

// ---------------------------------------------------------------------------
// Traced run: every layer, called in turn at width 1

struct LayerCounts {
  std::map<std::string, double> values;  ///< per-layer metrics measured here
  void add(const std::string& k, double v) { values[k] += v; }
};

std::vector<double> times_in(const std::vector<double>& all, double t0, double t1) {
  std::vector<double> out;
  for (double t : all)
    if (t >= t0 && t < t1) out.push_back(t);
  return out;
}

/// fit_fullweb_model's work on `ds`, one layer call at a time, serially,
/// with the options fit_fullweb_model resolves from FullWebOptions{}.
void decompose_fit(const weblog::Dataset& ds, support::Executor& serial,
                   std::uint64_t seed, LayerCounts& counts) {
  core::FullWebOptions opts;
  opts.arrivals.hurst.executor = &serial;
  opts.tails.executor = &serial;

  std::vector<double> rps, sps, req_times, sess_times;
  std::vector<std::pair<weblog::Load, weblog::Interval>> picks;
  {
    Traced span("weblog.Dataset.series", "weblog.series_s");
    rps = ds.requests_per_second();
    sps = ds.sessions_per_second();
    req_times = ds.request_times();
    sess_times = ds.session_start_times();
    for (auto load : {weblog::Load::kLow, weblog::Load::kMed, weblog::Load::kHigh})
      if (auto iv = ds.pick(load, opts.interval_seconds); iv.ok())
        picks.emplace_back(load, iv.value());
  }

  for (const bool sessions : {false, true}) {
    Traced arrivals("core.analyze_arrivals");
    const auto& series = sessions ? sps : rps;
    auto hopts = opts.arrivals.hurst;
    traced("lrd.hurst_suite", "lrd.hurst_suite_s",
           [&] { return lrd::hurst_suite(series, hopts); });
    auto sopts = opts.arrivals.stationary;
    sopts.executor = &serial;
    if (sessions) sopts.only_if_nonstationary = true;
    auto st = traced("core.make_stationary", "core.stationarize_s",
                     [&] { return core::make_stationary(series, sopts); });
    if (!st.ok()) continue;
    const auto& stationary = st.value().series;
    traced("lrd.hurst_suite", "lrd.hurst_suite_s",
           [&] { return lrd::hurst_suite(stationary, hopts); });
    Traced sweep("lrd.aggregated_hurst_sweep", "lrd.aggregated_sweep_s");
    timeseries::AggregationPyramid pyramid(std::span<const double>(stationary),
                                           opts.arrivals.aggregation_levels);
    for (auto method : {lrd::HurstMethod::kWhittle, lrd::HurstMethod::kAbryVeitch})
      (void)lrd::aggregated_hurst_sweep(pyramid, method, hopts);
  }

  support::Rng rng(seed ^ 0x5eed);
  auto tails = [&](double t0, double t1) {
    Traced span("core.analyze_tail");
    for (int metric = 0; metric < 3; ++metric) {
      const auto xs = metric == 0   ? ds.session_lengths(t0, t1)
                      : metric == 1 ? ds.session_request_counts(t0, t1)
                                    : ds.session_byte_counts(t0, t1);
      if (xs.size() < opts.tails.min_samples) continue;
      auto llcd = traced("tail.llcd_fit", "tail.llcd_s",
                         [&] { return tail::llcd_fit(xs, opts.tails.llcd); });
      auto hill = traced("tail.hill_estimate", "tail.hill_s",
                         [&] { return tail::hill_estimate(xs, opts.tails.hill); });
      if (!llcd.ok() && !hill.ok()) continue;
      tail::CurvatureOptions copts;
      copts.replicates = opts.tails.curvature_replicates;
      copts.executor = &serial;
      for (auto model : {tail::TailModel::kPareto, tail::TailModel::kLognormal}) {
        copts.model = model;
        auto c = traced("tail.curvature_test", "tail.curvature_s",
                        [&] { return tail::curvature_test(xs, rng, copts); });
        if (c.ok()) counts.add("tail.curvature_replicates",
                               static_cast<double>(c.value().replicates));
      }
    }
  };
  tails(ds.t0(), ds.t1());
  for (const auto& [load, iv] : picks) tails(iv.t0, iv.t1);

  for (const auto& [load, iv] : picks) {
    for (const auto* times : {&req_times, &sess_times}) {
      Traced battery("core.poisson_battery");
      const auto in_window = times_in(*times, iv.t0, iv.t1);
      if (in_window.size() < opts.poisson_min_events) continue;
      for (double seconds : {3600.0, 600.0})
        for (auto spread : {poisson::SpreadMode::kUniform, poisson::SpreadMode::kDeterministic}) {
          auto popts = opts.poisson;
          popts.interval_seconds = seconds;
          popts.spread = spread;
          (void)traced("poisson.test_poisson_arrivals", "poisson.battery_s", [&] {
            return poisson::test_poisson_arrivals(in_window, iv.t0, iv.t1, popts, rng);
          });
        }
    }
  }

  (void)traced("core.analyze_errors", "core.errors_s",
               [&] { return core::analyze_errors(ds, opts.errors); });
}

struct FitTiming {
  double wall = 0.0;
  double cpu = 0.0;
};

FitTiming timed_fit(const weblog::Dataset& ds, support::Executor& ex, std::uint64_t seed,
                    Checks& checks) {
  FitTiming t;
  const double c0 = cpu_now();
  const double t0 = wall_now();
  support::Rng rng(seed);
  auto model = traced("core.fit_fullweb_model", "",
                      [&] { return core::fit_fullweb_model(ds, rng, fit_options(ex)); });
  t.wall = wall_now() - t0;
  t.cpu = cpu_now() - c0;
  checks.call(model, "fit_fullweb_model");
  return t;
}

void traced_layers(const Fixture& fx, support::Executor& serial,
                   support::Executor& parallel, std::uint64_t seed, Checks& checks,
                   LayerCounts& out) {
  // weblog: raw read + parse with a consumer that does nothing.
  {
    weblog::ClfReaderOptions reader;
    reader.executor = &serial;
    for (const auto& path : fx.logs) {
      auto s = traced("weblog.read_clf_records", "weblog.read_parse_s", [&] {
        return weblog::read_clf_records(path, reader, [](const weblog::ClfRecord&) {});
      });
      checks.call(s, "read_clf_records");
    }
  }

  // weblog: whole ingest at the parallel width, wall and CPU.
  std::optional<weblog::Dataset> week;
  {
    weblog::StreamIngestOptions ingest;
    ingest.reader.executor = &parallel;
    weblog::StreamIngestReport report;
    const double c0 = cpu_now();
    auto ds = traced("weblog.from_clf_stream", "weblog.ingest_s", [&] {
      return weblog::Dataset::from_clf_stream("log", fx.logs, ingest, &report);
    });
    out.add("weblog.ingest_cpu_s", cpu_now() - c0);
    if (!checks.call(ds, "from_clf_stream")) return;
    for (const auto& s : report.files) {
      checks.lines(s);
      out.add("weblog.lines", static_cast<double>(s.lines));
      out.add("weblog.chunks", static_cast<double>(s.chunks));
    }
    out.add("weblog.peak_open_sessions", static_cast<double>(report.peak_open_sessions));
    checks.expect(ds.value().requests().size() == fx.requests,
                  "ingested request count differs from the fixture");

    // weblog: the batch sessionizer over the parsed request table.
    const auto sessions = traced("weblog.sessionize", "weblog.sessionize_s", [&] {
      return weblog::sessionize(ds.value().requests());
    });
    checks.expect(sessions.size() == ds.value().sessions().size(),
                  "sessionize disagrees with the streaming sessionizer");
    week = std::move(ds).value();
  }

  // store: the week written as one FWC1 shard per day and read back; the
  // fleet driver below fits those shards.
  std::vector<weblog::Dataset> shards;
  {
    std::uint64_t store_bytes = 0;
    const auto& requests = week->requests();
    auto first = requests.begin();
    for (int day = 0; first != requests.end(); ++day) {
      const double end = week->t0() + (day + 1) * kDay;
      const auto last = std::lower_bound(
          first, requests.end(), end,
          [](const weblog::Request& r, double t) { return r.time < t; });
      if (last == first) continue;
      const std::string name = "day" + std::to_string(day);
      auto ds = weblog::Dataset::from_requests(name, std::vector<weblog::Request>(first, last));
      first = last;
      if (!checks.call(ds, "from_requests " + name)) return;
      const std::string path = fx.logs.front() + "." + name + ".fwc";
      auto written = traced("weblog.Dataset.to_columnar", "",
                            [&] { return ds.value().to_columnar(path); });
      if (!checks.call(written, "to_columnar " + path)) return;
      store_bytes += written.value();
      auto loaded = traced("weblog.Dataset.from_columnar", "store.read_s",
                           [&] { return weblog::Dataset::from_columnar(path); });
      if (!checks.call(loaded, "from_columnar " + path)) return;
      shards.push_back(std::move(loaded).value());
    }
    out.add("store.bytes", static_cast<double>(store_bytes));
  }

  // core: the whole fit. The first call in the process runs on cold caches;
  // then the parallel width and width 1.
  out.add("core.fit_first_rep_s", timed_fit(*week, serial, seed, checks).wall);
  const auto par = timed_fit(*week, parallel, seed, checks);
  const auto ser = timed_fit(*week, serial, seed, checks);
  out.add("core.fit_s", par.wall);
  out.add("core.fit_cpu_s", par.cpu);
  out.add("core.fit_serial_s", ser.wall);
  out.add("core.fit_serial_cpu_s", ser.cpu);

  // The same fit, decomposed into its layer calls at width 1.
  {
    Traced root("core.fit_decomposed");
    decompose_fit(*week, serial, seed, out);
  }
  // Kernel probes on the full request series (outside the decomposition).
  {
    Traced probes("stats.probes");
    const auto series = week->requests_per_second();
    (void)traced("stats.periodogram", "stats.periodogram_s",
                 [&] { return stats::periodogram(series, nullptr); });
    (void)traced("stats.kpss_test", "stats.kpss_s",
                 [&] { return stats::kpss_test(series); });
  }

  // core: the fleet driver over the day shards, at the parallel width.
  {
    support::Rng rng(seed);
    const double c0 = cpu_now();
    const double t0 = wall_now();
    auto report = traced("core.analyze_fleet", "", [&] {
      return core::analyze_fleet(shards, rng, fleet_options(parallel));
    });
    out.add("core.fleet_fit_s", wall_now() - t0);
    out.add("core.fleet_cpu_s", cpu_now() - c0);
    checks.call(report, "analyze_fleet");
  }

  // online: the log's records, already parsed, replayed through the
  // rolling-window analyzer. The replay span's self time is the add() work;
  // each snapshot() is a child span.
  {
    std::vector<std::pair<double, double>> records;
    records.reserve(fx.requests);
    weblog::ClfReaderOptions reader;
    reader.executor = &serial;
    for (const auto& path : fx.logs) {
      auto s = weblog::read_clf_records(path, reader, [&](const weblog::ClfRecord& rec) {
        records.emplace_back(rec.timestamp, static_cast<double>(rec.bytes));
      });
      checks.call(s, "read_clf_records");
    }
    online::OnlineAnalyzer analyzer(online::OnlineOptions{}, support::Rng(seed));
    {
      Traced replay("online.OnlineAnalyzer.add", "online.add_s");
      double next_snapshot = records.empty() ? 0.0 : records.front().first + kSnapshotEvery;
      for (const auto& [time, bytes] : records) {
        analyzer.add(time, bytes);
        if (time >= next_snapshot) {
          next_snapshot += kSnapshotEvery;
          (void)traced("online.OnlineAnalyzer.snapshot", "online.snapshot_s",
                       [&] { return analyzer.snapshot(); });
        }
      }
    }
    const auto snap = analyzer.snapshot();
    checks.expect(snap.records == records.size() && snap.late_dropped == 0,
                  "analyzer dropped records");
    out.add("online.records", static_cast<double>(snap.records));
  }
}

// ---------------------------------------------------------------------------
// Context and output

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string mode;
  std::map<std::string, std::string> flags;
  bool has(const std::string& k) const { return flags.count(k) != 0; }
  std::string get(const std::string& k) const {
    auto it = flags.find(k);
    if (it == flags.end()) die("missing --" + k);
    return it->second;
  }
  std::uint64_t num(const std::string& k) const {
    const std::string v = get(k);
    char* end = nullptr;
    const auto n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0') die("--" + k + " wants a whole number, got '" + v + "'");
    return n;
  }
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) die("usage: perfbench setup|run --workload W --seed N ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0) die("unexpected argument '" + k + "'");
    k = k.substr(2);
    if (i + 1 >= argc) die("--" + k + " wants a value");
    a.flags[k] = argv[++i];
  }
  return a;
}

void write_doc(const std::string& path, std::string doc) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << doc << '\n';
  if (!os) die("cannot write " + path);
}

void write_samples(support::JsonWriter& w, const std::string& key,
                   const std::vector<double>& xs) {
  w.key(key);
  w.begin_array();
  for (double x : xs) w.value(x);
  w.end_array();
}

int do_setup(const Args& args) {
  const Workload wl = find_workload(args.get("workload"));
  const std::uint64_t seed = args.num("seed");
  const std::string dir = args.get("dir");
  const std::size_t reps = args.has("reps") ? args.num("reps") : 3;
  std::vector<double> times;
  Fixture fx;
  for (std::size_t i = 0; i < std::max<std::size_t>(reps, 1); ++i) {
    const double t0 = wall_now();
    fx = write_fixture(wl, seed, dir);
    times.push_back(wall_now() - t0);
  }
  support::JsonWriter w;
  w.begin_object();
  write_samples(w, "setup_s", times);
  w.field("requests", fx.requests);
  w.field("sessions", fx.sessions);
  w.field("log_bytes", static_cast<std::size_t>(fx.log_bytes));
  w.field("log", fx.logs.front());
  w.end_object();
  write_doc(args.get("out"), std::move(w).str());
  return 0;
}

int do_run(const Args& args) {
  const Workload wl = find_workload(args.get("workload"));
  const std::uint64_t seed = args.num("seed");
  const bool trace = args.has("trace-out");
  Fixture fx;
  const std::string dir = args.get("dir");
  fx.requests = args.num("requests");
  fx.sessions = args.num("sessions");
  fx.logs.push_back(dir + "/" + args.get("log"));

  // Executors: the waiting caller helps run tasks, so `width` runnable
  // threads are width-1 pool workers plus the caller. A pool needs at
  // least 2 workers (1 means inline serial execution). From 4 CPUs up one
  // is left free: a fork-join pass as wide as the host waits on whichever
  // thread the host deschedules, and on a shared host that is the noise.
  const std::size_t cpus = host_cpus();
  const std::size_t workers = cpus >= 4 ? cpus - 2 : (cpus == 3 ? 2 : 1);
  const double e0 = wall_now();
  support::Executor serial(1);
  support::Executor parallel(workers);
  const double executor_start = wall_now() - e0;
  const std::size_t width = parallel.serial() ? 1 : workers + 1;

  Checks checks;
  support::JsonWriter w;
  w.begin_object();
  w.key("context");
  w.begin_object();
  w.field("workload", wl.name);
  w.field("seed", static_cast<std::size_t>(seed));
  w.field("nproc", cpus);
  w.field("width", width);
  w.field("cpu_model", cpu_model());
#ifdef NDEBUG
  w.field("build", "release");
#else
  w.field("build", "debug");
#endif
#ifdef __clang__
  w.field("compiler", "clang " __clang_version__);
#else
  w.field("compiler", "gcc " __VERSION__);
#endif
  w.end_object();
  w.field("executor_start_s", executor_start);

  const double budget = static_cast<double>(args.num("seconds"));
  std::vector<double> pass_par, pass_ser, ingest_par, snapshot_ms;
  std::size_t items = 0;
  std::string verdicts;
  std::optional<std::string> reference_output;
  double peak_rss = 0.0;
  auto one = [&](support::Executor& ex, bool keep) {
    PassResult r = run_pass(wl, fx, ex, seed, checks);
    checks.expect(!r.output.empty(), "pass produced no output");
    if (!reference_output) reference_output = r.output;
    checks.expect(r.output == *reference_output,
                  std::string("output at ") +
                      (&ex == &parallel ? "the parallel width" : "width 1") +
                      " differs from the first pass");
    if (verdicts.empty()) verdicts = r.verdicts;
    items = r.items;
    if (!keep) return r;
    const bool is_par = &ex == &parallel;
    (is_par ? pass_par : pass_ser).push_back(r.wall);
    if (is_par) {
      ingest_par.push_back(r.ingest_wall);
      snapshot_ms.insert(snapshot_ms.end(), r.snapshot_ms.begin(), r.snapshot_ms.end());
    }
    return r;
  };

  if (!trace) {
    // Warm-up: the first pass runs on cold caches and is discarded.
    const PassResult first = one(serial, false);
    w.field("first_pass_s", first.wall);
    // Peak memory is that of one width-1 pass in a fresh process. Later
    // peaks grow slowly with every pass, and at the parallel width they
    // depend on how many chunks the reader has in flight, i.e. on thread
    // timing, so they would measure the host's speed.
    peak_rss = peak_rss_mb();
    const double start = wall_now();
    // Width-1 and parallel passes alternate, one width-1 pass per
    // kParallelPerSerial parallel ones: only the parallel pass is gated, and
    // the host's speed moves in phases of seconds, so its median wants many
    // samples spread over the whole run.
    for (std::size_t rep = 0; rep < 2 || wall_now() - start < budget; ++rep) {
      if (rep % (kParallelPerSerial + 1) == 0) {
        one(serial, true);
        continue;
      }
      one(parallel, true);
      // Ingest is a small share of a batch pass; sample it more often.
      if (wl.kind == Kind::kBatch)
        for (int i = 0; i < kExtraIngests; ++i) {
          const double i0 = wall_now();
          (void)ingest(fx, parallel, checks);
          ingest_par.push_back(wall_now() - i0);
        }
    }
  } else {
    g_spans.enabled = true;
    LayerCounts layers;
    {
      Traced root("perfbench.layers");
      traced_layers(fx, serial, parallel, seed, checks, layers);
    }
    // Tracing overhead: the workload's own pass with the recorder off and
    // on, at width 1, in off-on-on-off order so a drifting host speed
    // weighs both sides alike.
    std::vector<double> on, off;
    for (bool enabled : {false, true, true, false}) {
      g_spans.enabled = enabled;
      (enabled ? on : off).push_back(one(serial, false).wall);
    }
    g_spans.enabled = true;
    peak_rss = peak_rss_mb();
    write_samples(w, "trace_pass_on_s", on);
    write_samples(w, "trace_pass_off_s", off);
    w.key("layers");
    w.begin_object();
    for (const auto& [k, v] : layers.values) w.field(k, v);
    w.end_object();
  }

  write_samples(w, "pass_s", pass_par);
  write_samples(w, "pass_serial_s", pass_ser);
  write_samples(w, "ingest_s", ingest_par);
  write_samples(w, "snapshot_ms", snapshot_ms);
  w.field("items", items);
  w.field("verdicts", verdicts);
  w.field("peak_rss_mb", peak_rss);
  w.field("attempted", checks.attempted);
  w.field("failed", checks.failed);
  w.end_object();
  write_doc(args.get("out"), std::move(w).str());
  if (trace) g_spans.write(args.get("trace-out"), wl.name);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // Every call gets an explicit executor; a serial global pool keeps any
  // call that falls back to it from starting threads beyond the width.
  support::Executor::set_global_threads(1);
  if (args.mode == "setup") return do_setup(args);
  if (args.mode == "run") return do_run(args);
  die("unknown mode '" + args.mode + "'");
}
