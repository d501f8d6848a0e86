"""Tests for the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import run
from stats import check_name, percentile, reindex

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 50), 50)
        self.assertEqual(percentile(values, 99), 99)
        self.assertEqual(percentile(values, 100), 100)
        self.assertEqual(percentile(list(reversed(values)), 99), 99)

    def test_small_samples(self):
        self.assertEqual(percentile([7], 99), 7)
        self.assertEqual(percentile([3, 1], 50), 1)
        self.assertEqual(percentile([3, 1, 2], 99), 3)
        self.assertIsNone(percentile([], 50))


class NameTest(unittest.TestCase):
    def test_charset(self):
        for good in ["lat_p50_ms.r25", "setup_s", "engine.sos.ff_step_frac",
                     "batch-io", "9lives"]:
            self.assertEqual(check_name(good), good)
        for bad in ["", ".hidden", "lat p50", "a/b", "x" * 65, "latência"]:
            with self.assertRaises(ValueError):
                check_name(bad)

    def test_benchmark_json_names(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        names = [w["name"] for w in bench["workloads"]]
        names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            check_name(name)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]),
                         sorted(run.WORKLOADS))
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertEqual(run.unit_of(m["name"]), m["unit"], m["name"])

    def test_frozen_rates_match(self):
        # serve-mixed's `why` quotes its frozen ladder rates and p99 limit;
        # they must be the numbers run.py uses.
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        for w in bench["workloads"]:
            wl = run.WORKLOADS[w["name"]]
            if "sat_rps" not in wl:
                self.assertNotIn("r25/r50/r80", w["why"])
                continue
            rates = "/".join("%g" % (wl["sat_rps"] * s) for s in run.LADDER[:3])
            self.assertIn(f"r25/r50/r80 = {rates} req/s", w["why"])
            self.assertIn("p99 limit %g ms" % wl["p99_limit_ms"], w["why"])


class GateTest(unittest.TestCase):
    EXPECTED = [
        '{"index":0,"id":"a","ok":true,"makespan":5,"lower_bound":4}',
        '{"index":0,"id":"b","ok":true,"makespan":9,"lower_bound":9}',
    ]

    def rows(self):
        # Two requests on one connection: pool records 1 then 0.
        return [{"pool": 1, "local": 0, "recv": 10},
                {"pool": 0, "local": 1, "recv": 20}]

    def responses(self):
        return [reindex(self.EXPECTED[1], 0), reindex(self.EXPECTED[0], 1)]

    def test_clean(self):
        self.assertEqual(run.gate(self.rows(), self.responses(),
                                  self.EXPECTED), [True, True])

    def test_doctored_line(self):
        responses = self.responses()
        responses[1] = responses[1].replace('"makespan":5', '"makespan":6')
        self.assertEqual(run.gate(self.rows(), responses, self.EXPECTED),
                         [True, False])

    def test_wrong_index(self):
        responses = self.responses()
        responses[1] = reindex(self.EXPECTED[0], 7)
        self.assertEqual(run.gate(self.rows(), responses, self.EXPECTED),
                         [True, False])

    def test_dropped_response(self):
        rows = self.rows()
        rows[0]["recv"] = -1
        responses = self.responses()
        responses[0] = ""
        self.assertEqual(run.gate(rows, responses, self.EXPECTED),
                         [False, True])

    def test_duplicated_response(self):
        # A second copy of the first answer takes the place of the next one.
        responses = self.responses()
        responses[1] = responses[0]
        self.assertEqual(run.gate(self.rows(), responses, self.EXPECTED),
                         [True, False])


class LadderTest(unittest.TestCase):
    def test_growing_backlog(self):
        self.assertFalse(run.growing(3, 5))
        self.assertTrue(run.growing(40, 90))

    def test_max_rate(self):
        steps = [{"rate": 100.0, "rep_p99": 1.0, "pass": True},
                 {"rate": 200.0, "rep_p99": 3.0, "pass": True},
                 {"rate": 300.0, "rep_p99": 13.0, "pass": False}]
        self.assertAlmostEqual(run.max_rate(steps, 8.0), 250.0)
        steps[2]["pass"] = True
        self.assertEqual(run.max_rate(steps, 8.0), 300.0)


if __name__ == "__main__":
    unittest.main()
