// Sessionization: grouping requests into user sessions.
//
// Following §2 of the paper, a session is a sequence of requests from the
// same client (IP address) with gaps below a threshold; the paper adopts a
// 30-minute threshold (from the sensitivity study in [12]). Session
// boundaries are delimited by inactivity longer than the threshold.
//
// One algorithm applies that rule, incrementally, with memory bounded by
// *open* sessions. For a time-ordered request stream the session decision
// is local: a client's open session either absorbs the next request
// (gap <= threshold) or is closed forever, because once
// `now - end > threshold` no later request can extend it. So:
//
//  * Open sessions live in a hash map keyed by client id, and additionally
//    on an intrusive list ordered by last-activity time. Because input
//    times are non-decreasing, touching a session moves it to the back and
//    the list STAYS sorted — eviction is "pop expired sessions off the
//    front", O(1) amortized per request.
//  * Peak memory is O(peak concurrently-open sessions), not O(total
//    requests): an infinite-source arrival stream (Faÿ–Roueff–Soulier) can
//    be sessionized in constant space per active user.
//  * finish() closes the remainder and returns the table in the canonical
//    `session_order`.
//
// `StreamingSessionizer` is that algorithm fed one request at a time (the
// CLF ingest path overlaps it with parsing); `sessionize()` is one pass of
// it over a whole request table in time order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

namespace fullweb::weblog {

/// A compact request record (client strings are interned by Dataset).
struct Request {
  double time = 0.0;           ///< epoch seconds
  std::uint32_t client = 0;    ///< interned client id
  std::uint16_t status = 200;  ///< HTTP status (0 = unknown)
  std::uint64_t bytes = 0;     ///< response bytes (completed or partial)
};

struct Session {
  std::uint32_t client = 0;
  double start = 0.0;          ///< time of the first request
  double end = 0.0;            ///< time of the last request
  std::uint64_t requests = 0;  ///< session length in number of requests
  std::uint64_t bytes = 0;     ///< bytes transferred per session

  /// Session length in time units. A single-request session has length 0.
  [[nodiscard]] double length() const noexcept { return end - start; }
};

/// Canonical session-table ordering: by start time, ties broken by client
/// id (a client cannot open two sessions at the same instant, so this is a
/// total order on any real table). finish() sorts with this comparator, so
/// the table does not depend on the order in which sessions closed.
[[nodiscard]] inline bool session_order(const Session& a,
                                        const Session& b) noexcept {
  if (a.start != b.start) return a.start < b.start;
  return a.client < b.client;
}

struct SessionizerOptions {
  double threshold_seconds = 1800.0;  ///< 30 minutes, per the paper
};

/// Group requests into sessions. Requests need not be sorted, but every
/// time must be finite (Dataset's constructors reject non-finite times).
/// The result is in canonical `session_order`. One StreamingSessionizer
/// pass in time order: O(n) on time-sorted input; otherwise the requests
/// are first copied and sorted, O(n log n).
[[nodiscard]] std::vector<Session> sessionize(std::span<const Request> requests,
                                              const SessionizerOptions& options = {});

/// Contract: feed requests in non-decreasing time order. Out-of-order
/// input is detected and flagged (`saw_unsorted()`); results are then
/// unreliable and the caller must sessionize the time-sorted table with
/// sessionize() instead (Dataset::from_clf_stream does).
class StreamingSessionizer {
 public:
  explicit StreamingSessionizer(SessionizerOptions options = {})
      : options_(options) {}

  /// Feed the next request; times must be non-decreasing across calls.
  void add(const Request& r);

  /// Close every still-open session and return the accumulated table in
  /// canonical `session_order`. The sessionizer is reset and may be reused.
  [[nodiscard]] std::vector<Session> finish();

  [[nodiscard]] std::size_t open_sessions() const noexcept {
    return by_end_.size();
  }
  [[nodiscard]] std::size_t peak_open_sessions() const noexcept {
    return peak_open_;
  }
  /// Restart the high-water mark, so peak_open_sessions() afterwards
  /// reports the maximum open-session count observed at events fed after
  /// this call (0 when none are fed). Sessions carried over from before the
  /// restart count as soon as a subsequent event shows them still open;
  /// sessions that lazy eviction has not yet retired but whose threshold
  /// already elapsed never inflate the new window's peak. Lets multi-file
  /// ingests report per-file peaks.
  void reset_peak() noexcept { peak_open_ = 0; }
  /// True once any request arrived with a timestamp below its predecessor.
  [[nodiscard]] bool saw_unsorted() const noexcept { return saw_unsorted_; }

 private:
  void evict_idle_before(double now);

  SessionizerOptions options_;
  std::list<Session> by_end_;  ///< open sessions, ascending last-activity
  std::unordered_map<std::uint32_t, std::list<Session>::iterator> open_;
  std::vector<Session> closed_;
  double last_time_ = -1.0;
  bool any_ = false;
  bool saw_unsorted_ = false;
  std::size_t peak_open_ = 0;
};

}  // namespace fullweb::weblog
