#include "weblog/dataset.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string_view>

#include "support/strings.h"
#include "timeseries/series.h"

namespace fullweb::weblog {

using support::Error;
using support::Result;
using support::Status;

std::string to_string(Load load) {
  switch (load) {
    case Load::kLow: return "Low";
    case Load::kMed: return "Med";
    case Load::kHigh: return "High";
  }
  return "?";
}

namespace {

/// The time invariant every constructor keeps: a NaN or infinite time would
/// break the time sort's strict weak ordering, the [t0, t1) window and the
/// binned series, so it is rejected rather than loaded.
Error non_finite_time(std::size_t index) {
  return Error::invalid_argument("Dataset: non-finite time at index " +
                                 std::to_string(index));
}

}  // namespace

Result<Dataset> Dataset::from_entries(std::string name,
                                      std::span<const LogEntry> entries,
                                      const SessionizerOptions& sessionizer) {
  if (entries.empty()) return Error::insufficient_data("Dataset: no entries");
  for (std::size_t i = 0; i < entries.size(); ++i)
    if (!std::isfinite(entries[i].timestamp)) return non_finite_time(i);
  Dataset ds;
  ds.name_ = std::move(name);
  ds.requests_.reserve(entries.size());

  std::unordered_map<std::string, std::uint32_t> intern;
  for (const auto& e : entries) {
    auto [it, inserted] =
        intern.emplace(e.client, static_cast<std::uint32_t>(intern.size()));
    ds.requests_.push_back(Request{e.timestamp, it->second,
                                   static_cast<std::uint16_t>(
                                       std::clamp(e.status, 0, 65535)),
                                   e.bytes});
  }
  ds.distinct_clients_ = intern.size();
  if (auto st = ds.finalize(sessionizer); !st.ok()) return st.error();
  return ds;
}

Result<Dataset> Dataset::from_requests(std::string name,
                                       std::vector<Request> requests,
                                       const SessionizerOptions& sessionizer) {
  if (requests.empty()) return Error::insufficient_data("Dataset: no requests");
  for (std::size_t i = 0; i < requests.size(); ++i)
    if (!std::isfinite(requests[i].time)) return non_finite_time(i);
  Dataset ds;
  ds.name_ = std::move(name);
  ds.requests_ = std::move(requests);

  std::uint32_t max_client = 0;
  for (const auto& r : ds.requests_) max_client = std::max(max_client, r.client);
  // Distinct count via a presence bitmap (client ids are dense by contract).
  std::vector<bool> seen(static_cast<std::size_t>(max_client) + 1, false);
  std::size_t distinct = 0;
  for (const auto& r : ds.requests_) {
    if (!seen[r.client]) {
      seen[r.client] = true;
      ++distinct;
    }
  }
  ds.distinct_clients_ = distinct;
  if (auto st = ds.finalize(sessionizer); !st.ok()) return st.error();
  return ds;
}

Status Dataset::check_window(double t0, double t1) {
  if (t1 - t0 <= kMaxWindowSeconds) return {};
  return Error::invalid_argument(
      "Dataset: observation window [" + support::format_sig(t0, 17) + ", " +
      support::format_sig(t1, 17) + ") is " +
      support::format_sig(t1 - t0, 6) + " s long, more than the " +
      support::format_sig(kMaxWindowSeconds, 8) + " s a Dataset holds");
}

Status Dataset::sort_requests_and_total() {
  std::sort(requests_.begin(), requests_.end(),
            [](const Request& a, const Request& b) { return a.time < b.time; });
  total_bytes_ = 0;
  for (const auto& r : requests_) total_bytes_ += r.bytes;
  t0_ = std::floor(requests_.front().time);
  t1_ = std::floor(requests_.back().time) + 1.0;
  return check_window(t0_, t1_);
}

Status Dataset::finalize(const SessionizerOptions& sessionizer) {
  if (auto st = sort_requests_and_total(); !st.ok()) return st;
  sessions_ = sessionize(requests_, sessionizer);
  return {};
}

namespace {

/// Heterogeneous string hashing so client interning can probe by
/// string_view without constructing a std::string per line (C++20
/// transparent lookup; the std::string key is built only on first sight of
/// a client).
struct TransparentStringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
  std::size_t operator()(const std::string& s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace

Result<Dataset> Dataset::from_clf_stream(std::string name,
                                         std::span<const std::string> paths,
                                         const StreamIngestOptions& options,
                                         StreamIngestReport* report) {
  Dataset ds;
  ds.name_ = std::move(name);

  std::unordered_map<std::string, std::uint32_t, TransparentStringHash,
                     std::equal_to<>>
      intern;
  StreamingSessionizer sessionizer(options.sessionizer);
  StreamIngestReport local_report;
  StreamIngestReport& rep = report != nullptr ? *report : local_report;
  rep = StreamIngestReport{};

  // Interning follows delivery order — identical to from_entries on the
  // same entry sequence — and the compact Request is all we keep; the
  // zero-copy ClfRecord (whose views die with its parse chunk) is never
  // materialized into a LogEntry on this path.
  auto on_record = [&](const ClfRecord& rec) {
    // A non-finite timestamp would poison everything downstream — the
    // time sort's strict weak ordering, t0/t1, the binned series — so the
    // record is dropped and counted rather than carried as a flag. The CLF
    // parser never emits one (timestamps are range-checked), but records
    // can also arrive through this path from non-parser producers.
    if (!std::isfinite(rec.timestamp)) {
      ++rep.invalid_time;
      return;
    }
    auto it = intern.find(rec.client);
    if (it == intern.end())
      it = intern
               .emplace(std::string(rec.client),
                        static_cast<std::uint32_t>(intern.size()))
               .first;
    const Request r{rec.timestamp, it->second,
                    static_cast<std::uint16_t>(std::clamp(rec.status, 0, 65535)),
                    rec.bytes};
    ds.requests_.push_back(r);
    // Keep feeding even after a sort violation: peak accounting stays
    // meaningful and saw_unsorted() decides whether the result is used.
    sessionizer.add(r);
  };

  std::size_t overall_peak = 0;
  for (const auto& path : paths) {
    // Per-file peak: restart the sessionizer's high-water mark so each
    // file reports the maximum open-session count reached *while it was
    // being ingested* (sessions still open from earlier files count — they
    // are open during this file too). The stream-wide peak is the max over
    // the per-file peaks, since every instant falls inside some file.
    sessionizer.reset_peak();
    auto stats = read_clf_records(path, options.reader, on_record);
    if (stats.ok()) {
      IngestStats s = std::move(stats).value();
      s.peak_open_sessions = sessionizer.peak_open_sessions();
      overall_peak = std::max(overall_peak, s.peak_open_sessions);
      rep.files.push_back(std::move(s));
    } else {
      IngestStats failed;
      failed.path = path;
      failed.open_failed = true;
      rep.files.push_back(std::move(failed));
    }
  }
  if (ds.requests_.empty())
    return Error::insufficient_data("Dataset::from_clf_stream: no entries");

  ds.distinct_clients_ = intern.size();
  rep.peak_open_sessions = overall_peak;
  rep.sessionized_incrementally = !sessionizer.saw_unsorted();

  if (auto st = ds.sort_requests_and_total(); !st.ok()) return st.error();
  if (rep.sessionized_incrementally) {
    ds.sessions_ = sessionizer.finish();
  } else {
    // Out-of-order entry stream (e.g. interleaved replica logs): the
    // incremental eviction decisions are not trustworthy, so sessionize the
    // now time-sorted table in one fresh pass.
    ds.sessions_ = sessionize(ds.requests_, options.sessionizer);
  }
  return ds;
}

std::vector<double> Dataset::request_times() const {
  std::vector<double> t;
  t.reserve(requests_.size());
  for (const auto& r : requests_) t.push_back(r.time);
  return t;
}

std::vector<double> Dataset::session_start_times() const {
  std::vector<double> t;
  t.reserve(sessions_.size());
  for (const auto& s : sessions_) t.push_back(s.start);
  return t;
}

std::vector<double> Dataset::requests_per_second(double bin_seconds) const {
  return timeseries::counts_per_bin(request_times(), t0_, t1_, bin_seconds);
}

std::vector<double> Dataset::sessions_per_second(double bin_seconds) const {
  return timeseries::counts_per_bin(session_start_times(), t0_, t1_, bin_seconds);
}

namespace {

template <typename Extract>
std::vector<double> session_samples(const std::vector<Session>& sessions, double t0,
                                    double t1, Extract&& extract) {
  std::vector<double> out;
  for (const auto& s : sessions) {
    if (s.start >= t0 && s.start < t1) out.push_back(extract(s));
  }
  return out;
}

}  // namespace

std::vector<double> Dataset::session_lengths() const {
  return session_lengths(t0_, t1_);
}
std::vector<double> Dataset::session_request_counts() const {
  return session_request_counts(t0_, t1_);
}
std::vector<double> Dataset::session_byte_counts() const {
  return session_byte_counts(t0_, t1_);
}

std::vector<double> Dataset::session_lengths(double t0, double t1) const {
  return session_samples(sessions_, t0, t1,
                         [](const Session& s) { return s.length(); });
}

std::vector<double> Dataset::session_request_counts(double t0, double t1) const {
  return session_samples(sessions_, t0, t1, [](const Session& s) {
    return static_cast<double>(s.requests);
  });
}

std::vector<double> Dataset::session_byte_counts(double t0, double t1) const {
  return session_samples(sessions_, t0, t1, [](const Session& s) {
    return static_cast<double>(s.bytes);
  });
}

namespace {

/// An interval the window can be counted in: finite and at least the one
/// second a CLF timestamp resolves, so there are never more intervals than
/// the per-second series has bins.
bool countable(double interval_seconds) {
  return interval_seconds >= 1.0 && std::isfinite(interval_seconds);
}

}  // namespace

std::vector<Interval> Dataset::partition(double interval_seconds) const {
  std::vector<Interval> out;
  if (!countable(interval_seconds)) return out;
  const auto count =
      static_cast<std::size_t>(std::ceil((t1_ - t0_) / interval_seconds));
  out.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i].index = i;
    out[i].t0 = t0_ + static_cast<double>(i) * interval_seconds;
    out[i].t1 = std::min(t1_, out[i].t0 + interval_seconds);
  }
  // Every request and session start lies in [t0_, t1_).
  const auto bucket = [&](double time) {
    return std::min(count - 1,
                    static_cast<std::size_t>((time - t0_) / interval_seconds));
  };
  for (const auto& r : requests_) ++out[bucket(r.time)].request_count;
  for (const auto& s : sessions_) ++out[bucket(s.start)].session_count;
  return out;
}

Result<Interval> Dataset::pick(Load load, double interval_seconds) const {
  if (!countable(interval_seconds))
    return Error::invalid_argument(
        "Dataset::pick: interval of " + support::format_sig(interval_seconds, 6) +
        " s is not a finite length of at least 1 s");
  auto parts = partition(interval_seconds);
  if (parts.size() < 3)
    return Error::insufficient_data("Dataset::pick: fewer than 3 intervals");

  // The grid starts at t0, so only the last interval can be partial; drop
  // it (boundary effects) when enough intervals remain.
  const Interval& last = parts.back();
  if (parts.size() >= 5 && last.t1 - last.t0 < interval_seconds * 0.999)
    parts.pop_back();

  std::sort(parts.begin(), parts.end(), [](const Interval& a, const Interval& b) {
    return a.request_count < b.request_count;
  });
  switch (load) {
    case Load::kLow: return parts.front();
    case Load::kMed: return parts[parts.size() / 2];
    case Load::kHigh: return parts.back();
  }
  return Error::invalid_argument("Dataset::pick: bad load class");
}

}  // namespace fullweb::weblog
