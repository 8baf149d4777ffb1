#include "online/analyzer.h"

#include <algorithm>
#include <cmath>

#include "lrd/variance_time.h"

namespace fullweb::online {

using support::JsonWriter;
using support::Result;

OnlineAnalyzer::OnlineAnalyzer(const OnlineOptions& options, support::Rng rng)
    : opts_(options) {
  if (!(opts_.bin_seconds > 0.0) || !std::isfinite(opts_.bin_seconds))
    opts_.bin_seconds = 1.0;
  if (opts_.block_bins == 0) opts_.block_bins = 1;
  if (opts_.window_blocks == 0) opts_.window_blocks = 1;
  // The salt makes item identities unique per analyzer (shards get
  // different rngs, hence disjoint tag spaces for sketch merging); the
  // splitter leaf is the only generator any snapshot ever consumes.
  salt_ = rng();
  support::RngSplitter splitter(rng, 0);
  subsample_base_ = splitter.stream(0);
  sketch_ = TailSketch(opts_.tail_top_k, opts_.tail_body_capacity);
}

std::int64_t OnlineAnalyzer::block_of(std::int64_t abin) const noexcept {
  const auto bb = static_cast<std::int64_t>(opts_.block_bins);
  std::int64_t q = abin / bb;
  if (abin % bb != 0 && abin < 0) --q;  // floor division
  return q;
}

void OnlineAnalyzer::advance_to_block(std::int64_t target) {
  const auto wb = static_cast<std::int64_t>(opts_.window_blocks);
  std::int64_t start = ring_.empty() ? target : ring_.back().index + 1;
  if (target - start >= wb) {
    // The jump skips past everything retained: the intervening silence is
    // all-zero blocks, of which only the trailing window matters.
    ring_.clear();
    start = target - wb + 1;
  }
  for (std::int64_t b = start; b <= target; ++b)
    ring_.push_back(Block{b, std::vector<double>(opts_.block_bins, 0.0)});
  while (ring_.size() > opts_.window_blocks) ring_.pop_front();
}

void OnlineAnalyzer::add(double time, double bytes) {
  const std::uint64_t seq = seq_++;
  sketch_.insert(bytes, TailSketch::make_tag(salt_, seq));
  if (std::isfinite(bytes) && bytes > 0.0)
    bytes_total_ += static_cast<std::uint64_t>(bytes);

  if (!std::isfinite(time)) {
    ++invalid_time_;
    return;
  }
  const double fb = std::floor(time / opts_.bin_seconds);
  if (!(fb >= -9.0e18 && fb <= 9.0e18)) {  // would overflow the bin index
    ++invalid_time_;
    return;
  }
  if (records_ > 0 && !(time >= last_time_)) saw_unsorted_ = true;
  last_time_ = records_ > 0 ? std::max(last_time_, time) : time;

  const auto abin = static_cast<std::int64_t>(fb);
  if (ring_.empty()) {
    ring_.push_back(
        Block{block_of(abin), std::vector<double>(opts_.block_bins, 0.0)});
    first_abin_ = abin;
    last_abin_ = abin;
  }
  const std::int64_t b = block_of(abin);
  if (b > ring_.back().index) advance_to_block(b);
  if (b < ring_.front().index) {
    ++late_dropped_;
    return;
  }
  Block& blk = ring_[static_cast<std::size_t>(b - ring_.front().index)];
  const std::int64_t offset =
      abin - blk.index * static_cast<std::int64_t>(opts_.block_bins);
  blk.bins[static_cast<std::size_t>(offset)] += 1.0;
  ++records_;
  first_abin_ = std::min(first_abin_, abin);
  last_abin_ = std::max(last_abin_, abin);
}

Result<weblog::IngestStats> OnlineAnalyzer::feed(
    const std::string& path, const weblog::ClfReaderOptions& reader) {
  return weblog::read_clf_records(
      path, reader, [this](const weblog::ClfRecord& r) { add(r); });
}

std::vector<double> OnlineAnalyzer::window_counts() const {
  std::vector<double> out;
  if (records_ == 0 || ring_.empty()) return out;
  const auto bb = static_cast<std::int64_t>(opts_.block_bins);
  // The window starts at the first *occupied* bin while the stream is still
  // shorter than the ring (matching the batch series, whose t0 is the first
  // arrival), and at the ring's oldest bin once the window has slid.
  const std::int64_t start = std::max(ring_.front().index * bb, first_abin_);
  out.reserve(static_cast<std::size_t>(last_abin_ - start + 1));
  for (const Block& blk : ring_) {
    const std::int64_t first = blk.index * bb;
    for (std::int64_t a = std::max(first, start);
         a < first + bb && a <= last_abin_; ++a)
      out.push_back(blk.bins[static_cast<std::size_t>(a - first)]);
  }
  return out;
}

OnlineSnapshot OnlineAnalyzer::snapshot() const {
  OnlineSnapshot s;
  s.records = records_;
  s.invalid_time = invalid_time_;
  s.late_dropped = late_dropped_;
  s.bytes_total = bytes_total_;
  s.saw_unsorted = saw_unsorted_;
  s.bin_seconds = opts_.bin_seconds;

  const std::vector<double> win = window_counts();
  s.window_bins = win.size();
  if (!win.empty()) {
    const auto bb = static_cast<std::int64_t>(opts_.block_bins);
    s.window_first_bin = std::max(ring_.front().index * bb, first_abin_);
    s.window_last_bin = last_abin_;
    s.counts = stats::MomentSummary::of(win);
    s.kpss.assign(stats::kpss_test(win, opts_.kpss_null));
    // Variance-time and FRS read the same block variances of the window.
    const stats::PrefixMoments pm(win);
    s.hurst_vt.assign(lrd::variance_time_hurst(pm));
    s.frs.assign(frs_memory_from_counts(pm, FrsOptions{opts_.frs_scales, 4}));
  } else {
    s.kpss.error = "empty window";
    s.hurst_vt.error = "empty window";
    s.frs.error = "empty window";
  }

  s.tail_count = sketch_.count();
  s.tail_rejected = sketch_.rejected();
  s.tail_retained = sketch_.retained();
  s.tail_min = sketch_.min();
  s.tail_max = sketch_.max();
  if (sketch_.count() > 0) {
    const std::vector<double> top = sketch_.top_values();
    auto plot = tail::hill_plot_from_top(top, sketch_.count(), opts_.hill);
    if (plot.ok())
      s.hill.assign(tail::hill_estimate_from_plot(plot.value(), opts_.hill));
    else
      s.hill.error = plot.error().message;
    support::Rng rng = subsample_base_;
    const std::vector<double> sample =
        sketch_.sample_values(opts_.tail_subsample, rng);
    s.llcd.assign(tail::llcd_fit(sample));
    static constexpr double kQs[] = {0.50, 0.90, 0.99};
    const std::vector<double> q = sketch_.quantiles(kQs);
    s.p50 = q[0];
    s.p90 = q[1];
    s.p99 = q[2];
  } else {
    s.hill.error = "empty tail sample";
    s.llcd.error = "empty tail sample";
  }
  return s;
}

namespace {

void write_error(JsonWriter& w, const std::string& message) {
  w.begin_object();
  w.field("error", message);
  w.end_object();
}

void write_kpss(JsonWriter& w, const SnapshotField<stats::KpssResult>& f) {
  if (!f.value) return write_error(w, f.error);
  w.begin_object();
  w.field("statistic", f.value->statistic);
  w.field("lag", f.value->lag);
  w.field("p_value", f.value->p_value);
  w.field("critical_5pct", f.value->critical_5pct);
  w.field("stationary_at_5pct", f.value->stationary_at_5pct());
  w.end_object();
}

void write_hurst(JsonWriter& w, const SnapshotField<lrd::HurstEstimate>& f) {
  if (!f.value) return write_error(w, f.error);
  w.begin_object();
  w.field("h", f.value->h);
  w.key("ci95_halfwidth");
  if (f.value->ci95_halfwidth)
    w.value(*f.value->ci95_halfwidth);
  else
    w.null();
  w.key("r_squared");
  if (f.value->r_squared)
    w.value(*f.value->r_squared);
  else
    w.null();
  w.end_object();
}

void write_frs(JsonWriter& w, const SnapshotField<FrsEstimate>& f) {
  if (!f.value) return write_error(w, f.error);
  w.begin_object();
  w.field("h", f.value->h);
  w.field("d", f.value->d);
  w.field("alpha_implied", f.value->alpha_implied);
  w.field("r_squared", f.value->r_squared);
  w.key("scales");
  w.begin_array();
  for (const FrsScalePoint& p : f.value->points) {
    w.begin_object();
    w.field("scale_bins", p.scale_bins);
    w.field("blocks", p.blocks);
    w.field("variance", p.variance);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_hill(JsonWriter& w, const SnapshotField<tail::HillEstimate>& f) {
  if (!f.value) return write_error(w, f.error);
  w.begin_object();
  w.field("alpha", f.value->alpha);
  w.field("k_low", f.value->k_low);
  w.field("k_high", f.value->k_high);
  w.field("stabilized", f.value->stabilized);
  w.end_object();
}

void write_llcd(JsonWriter& w, const SnapshotField<tail::LlcdFit>& f) {
  if (!f.value) return write_error(w, f.error);
  w.begin_object();
  w.field("alpha", f.value->alpha);
  w.field("stderr_alpha", f.value->stderr_alpha);
  w.field("r_squared", f.value->r_squared);
  w.field("theta", f.value->theta);
  w.field("points", f.value->points);
  w.field("tail_samples", f.value->tail_samples);
  w.end_object();
}

}  // namespace

void OnlineSnapshot::write_json(JsonWriter& w) const {
  w.begin_object();
  w.field("schema", "fullweb-online-snapshot-v1");
  w.field("records", static_cast<std::size_t>(records));
  w.field("invalid_time", static_cast<std::size_t>(invalid_time));
  w.field("late_dropped", static_cast<std::size_t>(late_dropped));
  w.field("bytes_total", static_cast<std::size_t>(bytes_total));
  w.field("saw_unsorted", saw_unsorted);
  w.key("window");
  w.begin_object();
  w.field("first_bin", static_cast<double>(window_first_bin));
  w.field("last_bin", static_cast<double>(window_last_bin));
  w.field("bins", window_bins);
  w.field("bin_seconds", bin_seconds);
  w.end_object();
  w.key("counts");
  w.begin_object();
  w.field("count", counts.count);
  w.field("mean", counts.mean);
  w.field("variance", counts.variance());
  w.field("min", counts.min);
  w.field("max", counts.max);
  w.end_object();
  w.key("kpss");
  write_kpss(w, kpss);
  w.key("hurst_vt");
  write_hurst(w, hurst_vt);
  w.key("frs");
  write_frs(w, frs);
  w.key("tail");
  w.begin_object();
  w.field("count", static_cast<std::size_t>(tail_count));
  w.field("rejected", static_cast<std::size_t>(tail_rejected));
  w.field("retained", tail_retained);
  w.field("min", tail_min);
  w.field("max", tail_max);
  w.key("hill");
  write_hill(w, hill);
  w.key("llcd");
  write_llcd(w, llcd);
  w.key("quantiles");
  w.begin_object();
  w.field("p50", p50);
  w.field("p90", p90);
  w.field("p99", p99);
  w.end_object();
  w.end_object();
  w.end_object();
}

std::string OnlineSnapshot::to_json() const {
  JsonWriter w;
  write_json(w);
  return std::move(w).str();
}

}  // namespace fullweb::online
