// Tests for bench::meets_floor, the check every perf bench applies to the
// ratio it measures before choosing its exit status.
#include <gtest/gtest.h>

#include <limits>

#include "bench_common.h"

namespace {

using fullweb::bench::meets_floor;

TEST(BenchFloor, PassesAtAndAboveTheFloor) {
  EXPECT_TRUE(meets_floor("row/at", 2.0, 2.0));
  EXPECT_TRUE(meets_floor("row/above", 2.9, 1.5));
}

TEST(BenchFloor, FailsBelowTheFloor) {
  EXPECT_FALSE(meets_floor("row/below", 1.49, 1.5));
}

TEST(BenchFloor, FailsOnNaN) {
  // A ratio of two failed timings must not slip past the comparison.
  EXPECT_FALSE(meets_floor("row/nan", std::numeric_limits<double>::quiet_NaN(),
                           2.0));
}

TEST(BenchFloor, PrintsTheVerdictLine) {
  testing::internal::CaptureStdout();
  (void)meets_floor("fullweb_fit/threads:4", 2.37, 1.5);
  (void)meets_floor("stream/online_vs_batch", 1.8, 2.0);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("floor fullweb_fit/threads:4 2.37x (>= 1.5x) ok\n"),
            std::string::npos);
  EXPECT_NE(out.find("floor stream/online_vs_batch 1.80x (>= 2x) BELOW FLOOR\n"),
            std::string::npos);
}

}  // namespace
