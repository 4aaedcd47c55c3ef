"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench/tests

Covers the run-to-run aggregation (median and quartile spread, as the
benchmark's acceptance rule computes it), the result-line contract of
run.py, and builds and runs the C++ unit tests of the percentile, median
and open-loop schedule code (tests/stats_test.cc).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
import spread  # noqa: E402


class QuartileSpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        median, q1, q3, share = spread.quartile_spread(values)
        self.assertAlmostEqual(median, 10.75)
        # statistics.quantiles(n=4), default 'exclusive' method.
        self.assertAlmostEqual(q1, 9.875)
        self.assertAlmostEqual(q3, 12.125)
        self.assertAlmostEqual(share, (12.125 - 9.875) / 10.75)

    def test_identical_runs_have_no_spread(self):
        self.assertEqual(spread.quartile_spread([2.0] * 10)[3], 0.0)

    def test_single_and_empty(self):
        self.assertEqual(spread.quartile_spread([3.0]), (3.0, 3.0, 3.0, 0.0))
        self.assertEqual(spread.quartile_spread([]), (0.0, 0.0, 0.0, 0.0))

    def test_zero_median_is_infinite_spread(self):
        self.assertEqual(spread.quartile_spread([-1.0, 0.0, 0.0, 1.0])[3],
                         float("inf"))

    def test_verdict(self):
        self.assertEqual(spread.verdict(0.05, 0.25, False), "steady")
        self.assertEqual(spread.verdict(0.20, 0.25, False), "within bound")
        self.assertEqual(spread.verdict(0.30, 0.25, False), "OVER BOUND")
        # set-up time is only held to its medians, not to its spread
        self.assertEqual(spread.verdict(0.30, 0.25, True), "within bound")
        self.assertEqual(spread.verdict(0.30, None, False), "")

    def test_parse_seeds(self):
        self.assertEqual(spread.parse_seeds("1-4"), [1, 2, 3, 4])
        self.assertEqual(spread.parse_seeds("3,7"), [3, 7])


class ResultLineTest(unittest.TestCase):
    def test_accepts_contract_line(self):
        out = "# meta {}\n# metric qps 1 1/s samples=3\n" + json.dumps(
            {"correct": True, "attempted": 3, "failed": 0,
             "metrics": {"qps": {"value": 1.5, "unit": "1/s"}}})
        lines, result = run.parse_result(out)
        self.assertEqual(len(lines), 3)
        self.assertTrue(result["correct"])

    def test_rejects_extra_keys_and_empty_runs(self):
        bad = {"correct": True, "attempted": 3, "failed": 0, "metrics": {},
               "meta": {}}
        with self.assertRaises(ValueError):
            run.parse_result(json.dumps(bad))
        zero = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        with self.assertRaises(ValueError):
            run.parse_result(json.dumps(zero))
        with self.assertRaises(ValueError):
            run.parse_result("")


@unittest.skipIf(shutil.which("cmake") is None, "cmake not installed")
class StatsCodeTest(unittest.TestCase):
    """Builds only the dependency-free stats test target and runs it."""

    def test_stats_unit_tests_pass(self):
        build = os.path.join(os.path.dirname(run.build_dir()),
                             "perfbench-tests")
        subprocess.run(["cmake", "-S", PERFBENCH, "-B", build],
                       check=True, stdout=subprocess.DEVNULL)
        subprocess.run(["cmake", "--build", build, "--target",
                        "perfbench_stats_test"], check=True,
                       stdout=subprocess.DEVNULL)
        out = subprocess.run([os.path.join(build, "perfbench_stats_test")],
                             capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stderr)


if __name__ == "__main__":
    unittest.main()
