#!/usr/bin/env python3
"""Self-test of the benchmark's statistics and schema helpers.

    python3 perfbench/test_stats.py
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_p99_when_enough_samples(self):
        samples = list(range(1, 1001))  # 1000 samples
        value, used = stats.tail_percentile(samples, 99)
        self.assertEqual(used, 99)
        self.assertEqual(value, 990)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_caps_to_keep_ten_beyond(self):
        for n in (11, 12, 50, 99, 500, 592, 999, 1001, 12345):
            samples = [float(i) for i in range(n)]
            value, used = stats.tail_percentile(samples, 99)
            beyond = sum(1 for s in samples if s > value)
            self.assertGreaterEqual(beyond, stats.TAIL_MARGIN, n)
            self.assertLessEqual(used, 99)
            if n * 0.01 >= stats.TAIL_MARGIN:
                self.assertEqual(used, 99, n)
            else:
                # The highest percentile with ten beyond: one rank higher
                # would leave only nine.
                self.assertEqual(beyond, stats.TAIL_MARGIN, n)

    def test_unsorted_input_and_ties(self):
        samples = [5.0] * 30 + [1.0] * 970
        value, _ = stats.tail_percentile(list(reversed(samples)), 99)
        self.assertEqual(value, 5.0)

    def test_too_few_samples(self):
        with self.assertRaises(stats.MetricError):
            stats.tail_percentile(list(range(10)), 99)
        with self.assertRaises(stats.MetricError):
            stats.tail_percentile([], 50)


class MedianTest(unittest.TestCase):
    def test_odd_even_empty(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(stats.MetricError):
            stats.median([])


class NamesTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.spec = json.load(f)
        with open(os.path.join(HERE, "layers.json")) as f:
            self.layers = json.load(f)

    def test_name_rule(self):
        for good in ("q1_p50_ms", "iql.probes.name", "a-b.c_9", "9lives"):
            self.assertTrue(stats.valid_name(good), good)
        for bad in ("", "_x", ".x", "has space", "a/b", "x" * 65, "ü"):
            self.assertFalse(stats.valid_name(bad), bad)

    def test_benchmark_names_and_units(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"]]
        names += [m["name"] for m in self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for name in names:
            self.assertTrue(stats.valid_name(name), name)
        for metric in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertTrue(stats.valid_unit(metric["unit"]), metric)
            self.assertIn(metric["better"], ("lower", "higher"))
        for metric in self.spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))

    def test_every_layer_is_mapped(self):
        mapped = {name for name in self.layers if not name.startswith("_")}
        listed = {m["name"] for m in self.spec["per_layer"]}
        self.assertEqual(mapped, listed)
        workloads = {w["name"] for w in self.spec["workloads"]}
        for name in mapped:
            on = self.layers[name]["on"]
            self.assertTrue(on == "every workload" or on in workloads, name)


class SchemaTest(unittest.TestCase):
    def test_round_trip(self):
        units = {"latency_ms": "ms", "setup_s": "s"}
        result = stats.make_result(True, 1000, 2,
                                   {"latency_ms": 1.2034, "setup_s": 0.8127},
                                   units)
        line = json.dumps(result)
        parsed = stats.parse_result(line)
        self.assertEqual(parsed, result)
        self.assertEqual(list(parsed), list(stats.RESULT_KEYS))
        self.assertEqual(parsed["metrics"]["latency_ms"],
                         {"value": 1.2034, "unit": "ms"})

    def test_values_keep_all_digits(self):
        value = 0.1234567890123456
        result = stats.make_result(True, 1, 0, {"x": value}, {"x": "s"})
        parsed = stats.parse_result(json.dumps(result))
        self.assertEqual(parsed["metrics"]["x"]["value"], value)

    def test_rejects_malformed(self):
        good = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"x": {"value": 1.0, "unit": "ms"}}}
        bad = [
            dict(good, extra=1),
            {k: v for k, v in good.items() if k != "failed"},
            dict(good, attempted=0),
            dict(good, attempted=1.5),
            dict(good, correct="yes"),
            dict(good, metrics={"x y": {"value": 1.0, "unit": "ms"}}),
            dict(good, metrics={"x": {"value": "1", "unit": "ms"}}),
            dict(good, metrics={"x": {"value": 1.0}}),
            dict(good, metrics={"x": {"value": 1.0, "unit": "m s"}}),
        ]
        for result in bad:
            with self.assertRaises(ValueError, msg=result):
                stats.parse_result(json.dumps(result))
        with self.assertRaises(stats.MetricError):
            stats.make_result(True, 0, 0, {}, {})

    def test_end_to_end_from_record(self):
        # The host probe ran at twice the reference time: times halve,
        # rates double, sizes and ratios stay.
        reference = stats.REFERENCE_PROBE_MS
        record = {
            "samples": {"setup_s": [3.0, 1.0, 2.0], "query": [1.0] * 100,
                        "create": [2.0, 4.0], "restart_s": [0.5],
                        "host_probe": [reference, 2 * reference, 3 * reference],
                        **{f"Q{i}": [float(i)] for i in range(1, 9)}},
            "values": {"elapsed_s": 10.0, "queries": 100, "space_amp": 0.9,
                       "rss_mb": 100.0},
        }
        self.assertEqual(stats.host_scale(record), 2.0)
        metrics = stats.end_to_end(record)
        self.assertEqual(metrics["setup_s"][0], 1.0)
        self.assertEqual(metrics["queries_per_s"][0], 20.0)
        self.assertEqual(metrics["space_amp"][0], 0.9)
        self.assertEqual(metrics["rss_mb"][0], 100.0)
        self.assertEqual(stats.raw_end_to_end(record)["setup_s"][0], 2.0)
        self.assertEqual(stats.extras(record)["q8_p50_ms"][0], 4.0)
        self.assertEqual(stats.extras(record)["create_p50_ms"][0], 1.5)
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(set(metrics), {m["name"] for m in spec["end_to_end"]})
        del record["samples"]["restart_s"]
        with self.assertRaises(stats.MetricError):
            stats.end_to_end(record)
        record["samples"]["restart_s"] = [0.5]
        del record["samples"]["host_probe"]
        with self.assertRaises(stats.MetricError):
            stats.end_to_end(record)

if __name__ == "__main__":
    unittest.main()
