// Tests for the bench_compare gate library (tools/bench_compare_lib.h): the
// --min-speedup floor (measured, not measured, zero matches, malformed
// input) and the build-type stamp --check-release audits.
#include "bench_compare_lib.h"

#include <gtest/gtest.h>

#include <string>

namespace {

using namespace fullweb::benchcmp;

std::string bench_doc(const std::string& rows) {
  return "{\"context\": {\"date\": \"x\"}, \"benchmarks\": [" + rows + "]}";
}

// --min-speedup mode: the scaling-floor gate over bench_parallel_scaling's
// speedup-annotated result files. The threads:8 row ran on a host with fewer
// hardware threads, so it carries no speedup.

std::string scaling_doc() {
  return bench_doc(R"(
      {"name": "fullweb_fit/threads:1", "real_time": 4.0e9, "time_unit": "ns",
       "speedup": 1.0},
      {"name": "fullweb_fit/threads:2", "real_time": 2.2e9, "time_unit": "ns",
       "speedup": 1.8},
      {"name": "fullweb_fit/threads:4", "real_time": 1.4e9, "time_unit": "ns",
       "speedup": 2.9},
      {"name": "fullweb_fit/threads:8", "real_time": 1.3e9, "time_unit": "ns"},
      {"name": "no_speedup_row", "real_time": 1.0, "time_unit": "ns"})");
}

TEST(BenchCompareSpeedup, FloorPassesAndFails) {
  const auto pass = check_min_speedup(scaling_doc(), 2.5, "threads:4");
  ASSERT_TRUE(pass.ok());
  EXPECT_EQ(pass.value().checked, 1);
  EXPECT_EQ(pass.value().failures, 0);
  EXPECT_FALSE(pass.value().failed());
  ASSERT_EQ(pass.value().rows.size(), 1u);
  EXPECT_EQ(pass.value().rows[0].name, "fullweb_fit/threads:4");
  EXPECT_DOUBLE_EQ(pass.value().rows[0].speedup.value_or(0.0), 2.9);
  EXPECT_TRUE(pass.value().rows[0].pass);
  EXPECT_FALSE(pass.value().skipped());

  const auto fail = check_min_speedup(scaling_doc(), 3.5, "threads:4");
  ASSERT_TRUE(fail.ok());
  EXPECT_EQ(fail.value().failures, 1);
  EXPECT_TRUE(fail.value().failed());
}

TEST(BenchCompareSpeedup, EmptyFilterChecksEveryAnnotatedRow) {
  // The threads:1 row (speedup 1.0) drags the gate below a 1.5 floor; rows
  // without a speedup field are listed as not measured, not failed.
  const auto r = check_min_speedup(scaling_doc(), 1.5, "");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().rows.size(), 5u);
  EXPECT_EQ(r.value().checked, 3);
  EXPECT_EQ(r.value().failures, 1);
  EXPECT_TRUE(r.value().failed());
  EXPECT_FALSE(r.value().skipped());
}

TEST(BenchCompareSpeedup, UnmeasuredMatchesSkipTheGate) {
  // Every row matching the filter lacks a speedup: nothing was measured, so
  // the gate neither passes nor fails on it.
  const auto r = check_min_speedup(scaling_doc(), 1.5, "threads:8");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().rows.size(), 1u);
  EXPECT_FALSE(r.value().rows[0].speedup.has_value());
  EXPECT_EQ(r.value().checked, 0);
  EXPECT_TRUE(r.value().skipped());
  EXPECT_FALSE(r.value().failed());
}

TEST(BenchCompareSpeedup, ZeroMatchesFailsTheGate) {
  // A renamed benchmark must not silently disarm the floor.
  const auto r = check_min_speedup(scaling_doc(), 2.5, "threads:16");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().checked, 0);
  EXPECT_TRUE(r.value().failed());
  EXPECT_FALSE(r.value().skipped());
}

TEST(BenchCompareSpeedup, MalformedInputMirrorsParseErrors) {
  EXPECT_FALSE(check_min_speedup("{\"benchmarks\": [", 1.0, "").ok());
  EXPECT_FALSE(check_min_speedup("{}", 1.0, "").ok());
}

TEST(BenchCompareSpeedup, RenderNamesTheVerdicts) {
  const auto ok = check_min_speedup(scaling_doc(), 2.5, "threads:4");
  ASSERT_TRUE(ok.ok());
  const std::string table = render_speedup(ok.value(), 2.5, "threads:4");
  EXPECT_NE(table.find("fullweb_fit/threads:4"), std::string::npos);
  EXPECT_NE(table.find("1/1 benchmark(s) at or above 2.50x"), std::string::npos);
  EXPECT_EQ(table.find("SKIPPED"), std::string::npos);

  const auto below = check_min_speedup(scaling_doc(), 3.5, "threads:4");
  ASSERT_TRUE(below.ok());
  EXPECT_NE(render_speedup(below.value(), 3.5, "threads:4").find("BELOW FLOOR"),
            std::string::npos);

  const auto none = check_min_speedup(scaling_doc(), 2.5, "threads:16");
  ASSERT_TRUE(none.ok());
  EXPECT_NE(render_speedup(none.value(), 2.5, "threads:16")
                .find("no benchmarks matching"),
            std::string::npos);

  const auto unmeasured = check_min_speedup(scaling_doc(), 2.5, "threads:8");
  ASSERT_TRUE(unmeasured.ok());
  const std::string skipped =
      render_speedup(unmeasured.value(), 2.5, "threads:8");
  EXPECT_NE(skipped.find("not measured\n"), std::string::npos);
  EXPECT_NE(skipped.find("SKIPPED: benchmarks matching \"threads:8\" not "
                         "measured on this host"),
            std::string::npos);
}

TEST(BenchCompareBuildType, ReadsTheBinaryStamp) {
  EXPECT_EQ(detect_build_type(
                R"({"context": {"binary_build_type": "release"}})"),
            "release");
  EXPECT_EQ(detect_build_type(
                R"({"context": {"binary_build_type": "debug"}})"),
            "debug");
}

TEST(BenchCompareBuildType, MissingFieldsAreUnknownNotDebug) {
  // Old baselines without the stamp must not retroactively fail.
  EXPECT_EQ(detect_build_type(R"({"context": {}, "benchmarks": []})"), "");
  EXPECT_EQ(detect_build_type(R"({"benchmarks": []})"), "");
  EXPECT_EQ(detect_build_type("not json at all"), "");
}

}  // namespace
