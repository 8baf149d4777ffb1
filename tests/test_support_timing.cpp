// Tests for the StageTimings span tree (support/timing.h): nesting via the
// per-thread open-stage stack, thread-id assignment, the indented table, and
// the JSON dump behind --timings-json.
//
// Durations come from the wall clock, so tests never assert exact seconds —
// they assert the *structure* (parents, threads, ordering).
#include "support/timing.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "support/json.h"

namespace fullweb::support {
namespace {

TEST(StageTimings, NullSinkTimerIsANoop) {
  StageTimer t(nullptr, "nothing");
  EXPECT_GE(t.stop(), 0.0);
}

TEST(StageTimings, BeginEndNestsOnTheSameThread) {
  StageTimings t;
  EXPECT_TRUE(t.empty());
  const std::size_t outer = t.begin("outer");
  const std::size_t inner = t.begin("inner");
  t.end(inner);
  t.end(outer);
  const std::size_t sibling = t.begin("sibling");
  t.end(sibling);

  EXPECT_FALSE(t.empty());
  const auto entries = t.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[outer].stage, "outer");
  EXPECT_EQ(entries[outer].parent, -1);
  EXPECT_EQ(entries[inner].parent, static_cast<int>(outer));
  EXPECT_EQ(entries[sibling].parent, -1);  // outer closed before it began
  for (const auto& e : entries) {
    EXPECT_GE(e.seconds, 0.0);
    EXPECT_GE(e.start, 0.0);
    EXPECT_EQ(e.thread, 0);  // single thread = dense id 0
  }
}

TEST(StageTimings, ThreadsGetDenseIdsAndRootParents) {
  StageTimings t;
  const std::size_t main_stage = t.begin("main");
  std::thread other([&] {
    // A different thread has no open frame here: the stage must become a
    // root (this is the stolen-task behaviour documented in the header).
    const std::size_t s = t.begin("worker");
    t.end(s);
  });
  other.join();
  t.end(main_stage);

  const auto entries = t.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].thread, 0);
  EXPECT_EQ(entries[1].thread, 1);  // dense, in first-seen order
  EXPECT_EQ(entries[1].parent, -1);
}

TEST(StageTimings, TableIndentsChildren) {
  StageTimings t;
  const std::size_t outer = t.begin("outer");
  t.end(t.begin("child"));
  t.end(outer);
  const std::string table = t.table();
  EXPECT_NE(table.find("outer"), std::string::npos);
  EXPECT_NE(table.find("  child"), std::string::npos);
}

TEST(StageTimings, ToJsonRoundTripsTheTree) {
  StageTimings t;
  const std::size_t outer = t.begin("outer");
  t.end(t.begin("child"));
  t.end(outer);

  const auto doc = json_parse(t.to_json());
  ASSERT_TRUE(doc.has_value());
  const JsonArray* stages = doc->find("stages")->array();
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->size(), 2u);
  const JsonValue& o = (*stages)[0];
  EXPECT_EQ(o.find("stage")->string().value_or(""), "outer");
  EXPECT_DOUBLE_EQ(o.find("parent")->number().value_or(0.0), -1.0);
  const JsonValue& c = (*stages)[1];
  EXPECT_EQ(c.find("stage")->string().value_or(""), "child");
  EXPECT_GE(c.find("seconds")->number().value_or(-1.0), 0.0);
  EXPECT_GE(c.find("start")->number().value_or(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(c.find("thread")->number().value_or(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(c.find("parent")->number().value_or(-2.0), 0.0);
}

TEST(StageTimer, StopReturnsElapsedAndDetaches) {
  StageTimings t;
  StageTimer timer(&t, "once");
  const double first = timer.stop();
  EXPECT_GE(first, 0.0);
  // After stop() the destructor must not record a second entry.
  {
    StageTimer inner(&t, "twice");
    inner.stop();
  }
  EXPECT_EQ(t.entries().size(), 2u);
}

}  // namespace
}  // namespace fullweb::support
