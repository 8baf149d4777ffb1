// Lightweight per-stage wall-clock observer for the analysis pipeline.
//
// The FULL-Web task graph runs its branches concurrently, so a single
// outer stopwatch says nothing about where time goes. Each pipeline branch
// times itself with a StageTimer and reports into a shared (thread-safe)
// StageTimings sink; bench drivers print the resulting table. A null sink
// disables timing with no overhead beyond a pointer test.
//
// Beyond the flat table, the sink records a *span tree*: each entry keeps
// its start/stop timestamps, the dense id of the executing thread, and the
// index of the stage that was open on the same thread when it began. On a
// serial executor every task inlines at its submission site, so nesting
// reflects the task graph exactly; on a parallel pool a stolen task starts
// on a worker with no open stage and appears as a root (timestamps and
// thread ids stay meaningful, the tree does not). Record the tree at
// threads=1: that is where nesting is faithful.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace fullweb::support {

class StageTimings {
 public:
  struct Entry {
    std::string stage;
    double seconds = 0.0;  ///< duration (0 while the stage is still open)
    double start = 0.0;    ///< begin time, seconds since the sink was made
    int thread = 0;        ///< dense id of the executing thread
    int parent = -1;       ///< index of the enclosing stage, -1 = root
  };

  StageTimings();

  /// Open a stage on this thread: the entry is created now (so children
  /// can reference it) and closed by end(). Returns the entry index.
  std::size_t begin(std::string_view stage);

  /// Close a stage opened by begin() on the same thread.
  void end(std::size_t index);

  [[nodiscard]] std::vector<Entry> entries() const;
  [[nodiscard]] bool empty() const;

  /// "stage / seconds" text table in begin order, children indented under
  /// their parents.
  [[nodiscard]] std::string table() const;

  /// The span tree as a JSON document: one record per stage ({stage,
  /// seconds, start, thread, parent}) under "stages".
  [[nodiscard]] std::string to_json() const;

 private:
  [[nodiscard]] int thread_id_locked(std::thread::id id);

  mutable std::mutex m_;
  std::vector<Entry> entries_;
  std::map<std::thread::id, int> thread_ids_;
  double origin_ = 0.0;  ///< steady-clock seconds at construction
};

/// RAII stopwatch: opens the stage in `sink` on construction, closes it on
/// destruction (or at stop()). A null sink makes it a no-op.
class StageTimer {
 public:
  StageTimer(StageTimings* sink, std::string_view stage);
  ~StageTimer();

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  /// Record now and detach; returns the elapsed seconds.
  double stop();

 private:
  StageTimings* sink_;
  std::size_t index_ = 0;
  double start_ = 0.0;  ///< steady-clock seconds
  bool armed_ = false;
};

}  // namespace fullweb::support
