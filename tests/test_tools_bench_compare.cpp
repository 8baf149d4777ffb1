// Tests for the bench_compare comparison library (tools/bench_compare_lib.h):
// the regression-gate semantics the CI perf check depends on — malformed
// input rejection, unit normalization, threshold verdicts, and the
// missing-baseline-key-fails rule.
#include "bench_compare_lib.h"

#include <gtest/gtest.h>

#include <string>

namespace {

using namespace fullweb::benchcmp;

std::string bench_doc(const std::string& rows) {
  return "{\"context\": {\"date\": \"x\"}, \"benchmarks\": [" + rows + "]}";
}

TEST(BenchCompareParse, MalformedJsonIsAnError) {
  const auto r = parse_results("{\"benchmarks\": [", "cpu_time");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("malformed"), std::string::npos);
}

TEST(BenchCompareParse, MissingBenchmarksArrayIsAnError) {
  EXPECT_FALSE(parse_results("{}", "cpu_time").ok());
  EXPECT_FALSE(parse_results("{\"benchmarks\": 7}", "cpu_time").ok());
  EXPECT_FALSE(parse_results("[1,2,3]", "cpu_time").ok());
}

TEST(BenchCompareParse, ReadsMetricWithUnitNormalization) {
  const auto r = parse_results(
      bench_doc(R"(
        {"name": "bm_ns", "cpu_time": 250.0, "time_unit": "ns"},
        {"name": "bm_us", "cpu_time": 2.0,   "time_unit": "us"},
        {"name": "bm_ms", "cpu_time": 3.0,   "time_unit": "ms"},
        {"name": "bm_s",  "cpu_time": 4.0,   "time_unit": "s"})"),
      "cpu_time");
  ASSERT_TRUE(r.ok());
  const BenchMap& m = r.value();
  ASSERT_EQ(m.size(), 4u);
  EXPECT_DOUBLE_EQ(m.at("bm_ns").time, 250.0);
  EXPECT_DOUBLE_EQ(m.at("bm_us").time, 2000.0);
  EXPECT_DOUBLE_EQ(m.at("bm_ms").time, 3e6);
  EXPECT_DOUBLE_EQ(m.at("bm_s").time, 4e9);
}

TEST(BenchCompareParse, FallsBackToRealTimeAndSkipsAggregates) {
  const auto r = parse_results(
      bench_doc(R"(
        {"name": "bm_plain", "real_time": 100.0, "time_unit": "ns"},
        {"name": "bm_plain_mean", "aggregate_name": "mean",
         "cpu_time": 101.0, "time_unit": "ns"},
        {"name": "bm_no_time"})"),
      "cpu_time");
  ASSERT_TRUE(r.ok());
  const BenchMap& m = r.value();
  ASSERT_EQ(m.size(), 1u);  // aggregate and time-less rows skipped
  EXPECT_DOUBLE_EQ(m.at("bm_plain").time, 100.0);
}

TEST(BenchCompareCompare, ThresholdSeparatesOkImprovedRegression) {
  BenchMap base{{"a", {100.0, 0.0}}, {"b", {100.0, 0.0}}, {"c", {100.0, 0.0}}};
  BenchMap fresh{{"a", {105.0, 0.0}},   // +5%: within threshold
                 {"b", {80.0, 0.0}},    // -20%: improved
                 {"c", {125.0, 0.0}}};  // +25%: regression
  const CompareReport report = compare(base, fresh, 0.10);
  EXPECT_EQ(report.compared, 3);
  EXPECT_EQ(report.regressions, 1);
  EXPECT_EQ(report.missing, 0);
  EXPECT_TRUE(report.failed());
  ASSERT_EQ(report.rows.size(), 3u);
  EXPECT_EQ(report.rows[0].verdict, Verdict::kOk);          // "a"
  EXPECT_EQ(report.rows[1].verdict, Verdict::kImproved);    // "b"
  EXPECT_EQ(report.rows[2].verdict, Verdict::kRegression);  // "c"
}

TEST(BenchCompareCompare, MissingBaselineKeyFailsTheGate) {
  BenchMap base{{"kept", {100.0, 0.0}}, {"renamed", {100.0, 0.0}}};
  BenchMap fresh{{"kept", {100.0, 0.0}}, {"renamed_v2", {50.0, 0.0}}};
  const CompareReport report = compare(base, fresh, 0.10);
  EXPECT_EQ(report.missing, 1);
  EXPECT_EQ(report.regressions, 0);
  EXPECT_TRUE(report.failed());  // a dropped bench must not shrink the gate
  // The fresh-only benchmark is reported informationally, not as a failure.
  bool saw_new = false;
  for (const auto& row : report.rows)
    if (row.name == "renamed_v2") saw_new = row.verdict == Verdict::kNew;
  EXPECT_TRUE(saw_new);
}

TEST(BenchCompareCompare, IdenticalRunsPass) {
  BenchMap base{{"a", {100.0, 0.0}}, {"b", {5.5, 0.0}}};
  const CompareReport report = compare(base, base, 0.10);
  EXPECT_EQ(report.compared, 2);
  EXPECT_FALSE(report.failed());
  for (const auto& row : report.rows) EXPECT_EQ(row.verdict, Verdict::kOk);
}

TEST(BenchCompareLoad, UnreadablePathIsAnError) {
  const auto r = load_results("/nonexistent/bench.json", "cpu_time");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("cannot open"), std::string::npos);
}

TEST(BenchCompareRender, MentionsRegressionsAndMissing) {
  BenchMap base{{"a", {100.0, 0.0}}, {"gone", {1.0, 0.0}}};
  BenchMap fresh{{"a", {150.0, 0.0}}};
  const std::string table = render(compare(base, fresh, 0.10), 0.10);
  EXPECT_NE(table.find("REGRESSION"), std::string::npos);
  EXPECT_NE(table.find("MISSING"), std::string::npos);
  EXPECT_NE(table.find("1 regression(s), 1 missing"), std::string::npos);
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

TEST(BenchCompareBuildType, BinaryStampWinsOverLibraryField) {
  // The system libbenchmark reports library_build_type "debug" even for our
  // -O2 -DNDEBUG binaries; the custom binary_build_type stamp must win.
  const std::string doc = R"({"context": {"library_build_type": "debug",
      "binary_build_type": "release"}, "benchmarks": []})";
  EXPECT_EQ(detect_build_type(doc), "release");
  EXPECT_FALSE(is_debug_build(doc));
}

TEST(BenchCompareBuildType, FallsBackToLibraryField) {
  const std::string doc =
      R"({"context": {"library_build_type": "debug"}, "benchmarks": []})";
  EXPECT_EQ(detect_build_type(doc), "debug");
  EXPECT_TRUE(is_debug_build(doc));
}

TEST(BenchCompareBuildType, MissingFieldsAreUnknownNotDebug) {
  // Old baselines without either stamp must not retroactively fail.
  EXPECT_EQ(detect_build_type(R"({"context": {}, "benchmarks": []})"), "");
  EXPECT_EQ(detect_build_type(R"({"benchmarks": []})"), "");
  EXPECT_EQ(detect_build_type("not json at all"), "");
  EXPECT_FALSE(is_debug_build(R"({"benchmarks": []})"));
}

TEST(BenchCompareBuildType, DebugBinaryStampFailsEvenWithReleaseLibrary) {
  const std::string doc = R"({"context": {"library_build_type": "release",
      "binary_build_type": "debug"}, "benchmarks": []})";
  EXPECT_TRUE(is_debug_build(doc));
}

}  // namespace
