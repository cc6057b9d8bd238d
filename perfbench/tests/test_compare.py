"""Tests of the compare mode and of the result line run.py prints."""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import compare  # noqa: E402
import run  # noqa: E402


def run_lines(workload, trace, metrics):
    info = {"info": {"workload": workload, "trace": trace}}
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {k: {"value": v, "unit": "s"}
                          for k, v in metrics.items()}}
    return [json.dumps(info), json.dumps(result)]


class QuartilesTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, q2, q3 = compare.quartiles(values)
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(compare.spread(values), 5.5 / 5.5)

    def test_single_value_has_no_spread(self):
        self.assertEqual(compare.quartiles([3.0]), (3.0, 3.0, 3.0))
        self.assertEqual(compare.spread([3.0]), 0.0)


class PairsTest(unittest.TestCase):
    def test_pairs_follow_run_order_and_direction(self):
        parent = [10.0, 10.0, 10.0]
        change = [9.0, 11.0, 10.0]
        self.assertEqual(compare.pairs_won(parent, change, "lower"), (1, 1, 1))
        self.assertEqual(compare.pairs_won(parent, change, "higher"), (1, 1, 1))
        self.assertEqual(compare.pairs_won([1.0], [2.0], "higher"), (1, 0, 0))


class VerdictTest(unittest.TestCase):
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]

    def test_gain_needs_nine_tenths_of_pairs_and_a_gap(self):
        change = [v - 1.0 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1),
                         "better")
        mixed = change[:8] + [11.0, 11.0]
        self.assertEqual(compare.verdict(self.parent, mixed, "lower", 0.1),
                         "within bound")

    def test_regression_beyond_the_bound(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1),
                         "worse")
        self.assertEqual(compare.verdict(self.parent, change, "higher", 0.1),
                         "better")

    def test_wide_parent_spread_is_unresolved(self):
        wide = [5.0, 15.0, 5.0, 15.0, 10.0, 5.0, 15.0, 10.0]
        change = [v + 0.5 for v in wide]
        self.assertEqual(compare.verdict(wide, change, "lower", 0.1),
                         "unresolved")
        # ... unless every change run beats every parent run.
        self.assertEqual(compare.verdict(wide, [1.0] * 8, "lower", 0.1),
                         "better")

    def test_more_failed_operations_cancel_a_gain(self):
        change = [v - 1.0 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1,
                                         parent_failed=0, change_failed=1),
                         "more failures")
        self.assertEqual(compare.verdict(self.parent, self.parent, "lower",
                                         0.1, 0, 2), "more failures")
        worse = [v * 1.2 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, worse, "lower", 0.1,
                                         0, 2), "worse")
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1,
                                         3, 3), "better")

    def test_metric_without_bound(self):
        self.assertEqual(compare.verdict([1.0, 1.0], [1.0, 1.0], "lower",
                                         None), "no bound")


class CollectTest(unittest.TestCase):
    def test_groups_runs_by_workload_and_trace(self):
        lines = (["build noise"] + run_lines("a", 0, {"x": 1.0})
                 + run_lines("a", 0, {"x": 2.0})
                 + run_lines("b", 1, {"y": 3.0}))
        sets, failed = compare.collect(lines)
        self.assertEqual(sets[("a", 0)]["x"], [1.0, 2.0])
        self.assertEqual(sets[("b", 1)]["y"], [3.0])
        self.assertEqual(failed[("a", 0)], 0)

    def test_compare_report_names_every_shared_metric(self):
        benchmark = {"end_to_end": [{"name": "x", "unit": "s",
                                     "better": "lower", "bound": 0.1}],
                     "per_layer": []}
        parent = run_lines("a", 0, {"x": 1.0}) + run_lines("a", 0, {"x": 1.0})
        change = run_lines("a", 0, {"x": 2.0}) + run_lines("a", 0, {"x": 2.0})
        report = compare.compare(parent, change, benchmark)
        self.assertIn("a (trace 0)", report)
        self.assertIn("worse", report)


class ResultLineTest(unittest.TestCase):
    specs = [{"name": "a_s", "unit": "s"}, {"name": "b", "unit": "count"}]

    def test_units_come_from_the_benchmark_file(self):
        output = {"attempted": 3, "failed": 0,
                  "metrics": {"a_s": 1.5, "b": 2.0}}
        result = run.result_line(output, self.specs)
        self.assertEqual(list(result), ["correct", "attempted", "failed",
                                        "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["a_s"], {"value": 1.5, "unit": "s"})

    def test_a_failed_operation_makes_the_run_incorrect(self):
        output = {"attempted": 3, "failed": 1,
                  "metrics": {"a_s": 1.5, "b": 2.0}}
        self.assertFalse(run.result_line(output, self.specs)["correct"])

    def test_a_missing_metric_is_refused(self):
        output = {"attempted": 3, "failed": 0, "metrics": {"a_s": 1.5}}
        with self.assertRaises(SystemExit):
            run.result_line(output, self.specs)


if __name__ == "__main__":
    unittest.main()
