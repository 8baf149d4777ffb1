#include "support/timing.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>

#include "support/json.h"

namespace fullweb::support {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Stages currently open on this thread, innermost last. Frames carry the
/// owning sink so independent sinks never see each other's nesting.
struct OpenFrame {
  const StageTimings* sink;
  std::size_t index;
};
thread_local std::vector<OpenFrame> t_open;

/// Innermost open frame on this thread belonging to `sink`, or -1.
int open_parent(const StageTimings* sink) {
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it)
    if (it->sink == sink) return static_cast<int>(it->index);
  return -1;
}

}  // namespace

StageTimings::StageTimings() : origin_(now_seconds()) {}

int StageTimings::thread_id_locked(std::thread::id id) {
  auto [it, inserted] =
      thread_ids_.emplace(id, static_cast<int>(thread_ids_.size()));
  return it->second;
}

std::size_t StageTimings::begin(std::string_view stage) {
  const double start = now_seconds() - origin_;
  std::size_t index = 0;
  {
    std::scoped_lock lock(m_);
    index = entries_.size();
    Entry e;
    e.stage = std::string(stage);
    e.start = start;
    e.thread = thread_id_locked(std::this_thread::get_id());
    e.parent = open_parent(this);
    entries_.push_back(std::move(e));
  }
  t_open.push_back({this, index});
  return index;
}

void StageTimings::end(std::size_t index) {
  const double now = now_seconds() - origin_;
  // Scoped timers close innermost-first, so the frame is normally the top;
  // scan defensively in case an enclosing timer was stop()ped early.
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->sink == this && it->index == index) {
      t_open.erase(std::next(it).base());
      break;
    }
  }
  std::scoped_lock lock(m_);
  assert(index < entries_.size());
  entries_[index].seconds = now - entries_[index].start;
}

std::vector<StageTimings::Entry> StageTimings::entries() const {
  std::scoped_lock lock(m_);
  return entries_;
}

bool StageTimings::empty() const {
  std::scoped_lock lock(m_);
  return entries_.empty();
}

std::string StageTimings::table() const {
  const auto snapshot = entries();
  // Indent children under their parents; depth via the parent chain.
  std::vector<std::size_t> depth(snapshot.size(), 0);
  for (std::size_t i = 0; i < snapshot.size(); ++i)
    if (snapshot[i].parent >= 0)
      depth[i] = depth[static_cast<std::size_t>(snapshot[i].parent)] + 1;
  std::size_t width = 5;  // "stage"
  for (std::size_t i = 0; i < snapshot.size(); ++i)
    width = std::max(width, snapshot[i].stage.size() + 2 * depth[i]);
  std::string out;
  char buf[64];
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const auto& e = snapshot[i];
    out += "  ";
    out.append(2 * depth[i], ' ');
    out += e.stage;
    out.append(width - e.stage.size() - 2 * depth[i] + 2, ' ');
    std::snprintf(buf, sizeof buf, "%9.3f s\n", e.seconds);
    out += buf;
  }
  return out;
}

std::string StageTimings::to_json() const {
  const auto snapshot = entries();
  JsonWriter w;
  w.begin_object();
  w.key("stages");
  w.begin_array();
  for (const auto& e : snapshot) {
    w.begin_object();
    w.field("stage", e.stage);
    w.field("seconds", e.seconds);
    w.field("start", e.start);
    w.field("thread", static_cast<double>(e.thread));
    w.field("parent", static_cast<double>(e.parent));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

StageTimer::StageTimer(StageTimings* sink, std::string_view stage)
    : sink_(sink), armed_(sink != nullptr) {
  if (armed_) {
    start_ = now_seconds();
    index_ = sink_->begin(stage);
  }
}

StageTimer::~StageTimer() {
  if (armed_) stop();
}

double StageTimer::stop() {
  if (!armed_) return 0.0;
  armed_ = false;
  sink_->end(index_);
  return now_seconds() - start_;
}

}  // namespace fullweb::support
