"""Tests of the benchmark's pure helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

from spans import (
    check_metric_name,
    layer_metrics,
    percentile,
    self_times,
    span_stats,
    tail_percentile,
    union_length,
)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(self_times([("a", 1.0, 3.0, -1, "r")]), [2.0])

    def test_children_are_subtracted(self):
        spans = [
            ("root", 0.0, 10.0, -1, "r"),
            ("child", 1.0, 3.0, 0, "r"),
            ("child", 5.0, 6.0, 0, "r"),
        ]
        self.assertEqual(self_times(spans), [7.0, 2.0, 1.0])

    def test_overlapping_children_are_counted_once(self):
        spans = [
            ("root", 0.0, 10.0, -1, "r"),
            ("a", 1.0, 4.0, 0, "r"),
            ("b", 3.0, 6.0, 0, "r"),
        ]
        self.assertEqual(self_times(spans)[0], 5.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [("root", 0.0, 4.0, -1, "r"), ("late", 3.0, 9.0, 0, "r")]
        self.assertEqual(self_times(spans)[0], 3.0)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [
            ("root", 0.0, 10.0, -1, "r"),
            ("mid", 2.0, 8.0, 0, "r"),
            ("leaf", 3.0, 5.0, 1, "r"),
        ]
        self.assertEqual(self_times(spans), [4.0, 4.0, 2.0])

    def test_span_stats_sums_per_name(self):
        spans = [
            ("root", 0.0, 10.0, -1, "r"),
            ("leaf", 1.0, 2.0, 0, "r"),
            ("leaf", 4.0, 7.0, 0, "r"),
        ]
        stats = span_stats(spans)
        self.assertEqual(stats["leaf"]["calls"], 2)
        self.assertEqual(stats["leaf"]["busy_s"], 4.0)
        self.assertEqual(stats["root"]["self_s"], 6.0)

    def test_union_length(self):
        self.assertEqual(union_length([]), 0.0)
        self.assertEqual(union_length([(0, 2), (1, 3), (5, 6)]), 4.0)


class TailPercentile(unittest.TestCase):
    def test_p99_from_1000_samples(self):
        self.assertEqual(tail_percentile(1000), 99.0)
        self.assertEqual(tail_percentile(5000), 99.0)

    def test_leaves_ten_samples_beyond(self):
        for n in (21, 50, 100, 500, 999, 1000, 1008):
            q = tail_percentile(n)
            beyond = n * (1.0 - q / 100.0)
            self.assertGreaterEqual(beyond, 10.0 - 1e-9, n)
        self.assertEqual(tail_percentile(500), 98.0)

    def test_falls_back_to_median_for_small_samples(self):
        for n in (1, 10, 20):
            self.assertEqual(tail_percentile(n), 50.0)

    def test_rejects_empty(self):
        with self.assertRaises(ValueError):
            tail_percentile(0)

    def test_percentile_interpolates(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(percentile(values, 50.0), 50.5)
        self.assertEqual(percentile(values, 0.0), 1.0)
        self.assertEqual(percentile(values, 100.0), 100.0)
        self.assertAlmostEqual(percentile(values, 99.0), 99.01)

    def test_layer_metrics_of_a_span_that_never_ran(self):
        figures = layer_metrics({}, ["graph.norm_coefficients"])
        self.assertEqual(figures["graph.norm_coefficients.calls"], 0)
        self.assertEqual(figures["graph.norm_coefficients.p99_ms"], 0.0)


class MetricNames(unittest.TestCase):
    def test_accepts_valid_names(self):
        for name in ("setup_s", "model.forward_arrays.train.p99_ms", "a-b.c_d", "9x"):
            self.assertEqual(check_metric_name(name), name)

    def test_rejects_invalid_names(self):
        for name in ("", "has space", "slash/name", "_leading", ".dot", "x" * 65,
                     "ünïcode", None):
            with self.assertRaises(ValueError, msg=repr(name)):
                check_metric_name(name)

    def test_declared_metrics_are_valid_and_unique(self):
        bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                           .read_text())
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
        names += [w["name"] for w in bench["workloads"]]
        for name in names:
            check_metric_name(name)
        self.assertEqual(len(names), len(set(names)))


if __name__ == "__main__":
    unittest.main()
