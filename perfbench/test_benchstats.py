"""Tests for the benchmark's own arithmetic and for BENCHMARK.json agreeing
with the catalog. Run: python3 -m unittest discover -s perfbench"""

import json
import statistics
import unittest
from pathlib import Path

import benchstats
import catalog

HERE = Path(__file__).resolve().parent


def span(start, end, parent=-1):
    return {"start": start, "end": end, "parent": parent}


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(benchstats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchstats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        xs = [7.0, 1.0, 5.0, 3.0, 9.0, 11.0, 2.0, 4.0, 8.0, 6.0]
        q1, q2, q3 = benchstats.quartiles(xs)
        self.assertEqual((q1, q2, q3), tuple(statistics.quantiles(xs, n=4)))
        # Exclusive method on 1..11 minus 10: hand-computed.
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_single_sample_is_its_own_quartiles(self):
        self.assertEqual(benchstats.quartiles([4.2]), (4.2, 4.2, 4.2))


class Percentile(unittest.TestCase):
    def test_reported_only_with_ten_samples_beyond(self):
        xs = [float(i) for i in range(1, 1001)]  # 1000 samples
        self.assertEqual(benchstats.percentile(xs, 0.99), 990.0)  # 10 beyond
        self.assertIsNone(benchstats.percentile(xs[:999], 0.99))  # 9 beyond
        self.assertEqual(benchstats.percentile(xs[:20], 0.50), 10.0)
        self.assertIsNone(benchstats.percentile(xs[:19], 0.50))

    def test_order_does_not_matter(self):
        xs = [float(i % 37) for i in range(2000)]
        self.assertEqual(benchstats.percentile(xs, 0.5),
                         benchstats.percentile(sorted(xs), 0.5))

    def test_empty(self):
        self.assertIsNone(benchstats.percentile([], 0.5))


class SelfTime(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertEqual(benchstats.self_times([span(1.0, 3.5)]), [2.5])

    def test_nested_children_count_once(self):
        spans = [span(0.0, 10.0), span(1.0, 4.0, 0), span(2.0, 3.0, 1), span(6.0, 7.0, 0)]
        selfs = benchstats.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - 3.0 - 1.0)  # grandchild not subtracted twice
        self.assertAlmostEqual(selfs[1], 3.0 - 1.0)
        self.assertAlmostEqual(selfs[2], 1.0)
        self.assertAlmostEqual(selfs[3], 1.0)

    def test_overlapping_children_are_unioned(self):
        # Children run concurrently: [1,5] and [3,8] cover [1,8] once.
        spans = [span(0.0, 10.0), span(1.0, 5.0, 0), span(3.0, 8.0, 0)]
        self.assertAlmostEqual(benchstats.self_times(spans)[0], 3.0)

    def test_children_clipped_to_parent(self):
        spans = [span(2.0, 6.0), span(0.0, 3.0, 0), span(5.0, 9.0, 0)]
        self.assertAlmostEqual(benchstats.self_times(spans)[0], 2.0)

    def test_roots(self):
        spans = [span(0.0, 9.0), span(1.0, 2.0, 0), span(1.5, 1.6, 1), span(9.0, 10.0)]
        self.assertEqual(benchstats.roots(spans), [0, 0, 0, 3])


class CoresBusy(unittest.TestCase):
    def test_ratio(self):
        self.assertAlmostEqual(benchstats.cores_busy(3.9, 1.3), 3.0)

    def test_zero_wall_is_undefined(self):
        self.assertIsNone(benchstats.cores_busy(0.5, 0.0))
        self.assertIsNone(benchstats.cores_busy(0.0, 0.0))


class BenchmarkJson(unittest.TestCase):
    def test_matches_catalog(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(w["name"], w["why"]) for w in bench["workloads"]],
                         catalog.WORKLOADS)
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in bench["end_to_end"]], catalog.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         [row[:3] for row in catalog.PER_LAYER])


if __name__ == "__main__":
    unittest.main()
