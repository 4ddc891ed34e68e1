"""Unit tests for the benchmark's arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))


def span(i, parent, name, start, end):
    return {"id": i, "parent": parent, "name": name, "start": start, "end": end}


class SelfTime(unittest.TestCase):
    def test_nested_children_are_subtracted_once(self):
        spans = [span(0, -1, "bench.pass", 0.0, 10.0),
                 span(1, 0, "serve.classify", 1.0, 4.0),
                 span(2, 1, "xbar.encode", 2.0, 3.0),
                 span(3, 0, "serve.age", 5.0, 9.0)]
        selfs = metrics.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - 3.0 - 4.0)
        self.assertAlmostEqual(selfs[1], 3.0 - 1.0)  # grandchild not counted twice
        self.assertAlmostEqual(selfs[2], 1.0)
        self.assertAlmostEqual(selfs[3], 4.0)

    def test_overlapping_and_overhanging_children_count_their_union(self):
        spans = [span(0, -1, "dse.cold_job", 0.0, 4.0),
                 span(1, 0, "dse.explore", 1.0, 3.0),
                 span(2, 0, "dse.explore", 2.0, 5.0)]  # overlaps and runs past the end
        self.assertAlmostEqual(metrics.self_times(spans)[0], 1.0)

    def test_layer_totals_and_coverage(self):
        spans = [span(0, -1, "bench.replay", 0.0, 10.0),
                 span(1, 0, "serve.classify", 0.0, 6.0),
                 span(2, 1, "xbar.encode", 0.0, 5.0),
                 span(3, 1, "cam.search", 5.0, 6.0),
                 span(4, 0, "serve.age", 6.0, 9.5)]
        out = metrics.trace_metrics(spans)
        self.assertAlmostEqual(out["serve.classify_s"], 6.0)
        self.assertAlmostEqual(out["xbar.encode_s"], 5.0)
        self.assertAlmostEqual(out["serve.self_s"], 0.0 + 3.5)
        self.assertAlmostEqual(out["xbar.self_s"], 5.0)
        self.assertAlmostEqual(out["trace.coverage_frac"], 0.95)

    def test_span_metric_names(self):
        self.assertEqual(metrics.span_metric("xbar.encode"), "xbar.encode_s")
        self.assertEqual(metrics.span_metric("hdc.train.idlevel"), "hdc.train_s.idlevel")

    def test_chrome_trace_roundtrip(self):
        doc = {"traceEvents": [
            {"name": "bench.fit", "ph": "X", "ts": 0.0, "dur": 2000.0,
             "args": {"id": 0, "parent": -1}},
            {"name": "hdc.train.projection", "ph": "X", "ts": 500.0, "dur": 1000.0,
             "args": {"id": 1, "parent": 0}}]}
        spans = metrics.load_spans(doc)
        self.assertAlmostEqual(spans[1]["start"], 0.0005)
        self.assertAlmostEqual(spans[1]["end"], 0.0015)
        self.assertAlmostEqual(metrics.trace_metrics(spans)["trace.coverage_frac"], 0.5)


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(metrics.tail_percentile(range(19)))
        self.assertEqual(metrics.tail_percentile(range(20)), (50.0, 9))   # 10 beyond
        self.assertEqual(metrics.tail_percentile(range(1, 41))[0], 75.0)
        self.assertEqual(metrics.tail_percentile(range(99))[0], 75.0)      # p90 has 9 beyond
        self.assertEqual(metrics.tail_percentile(range(100)), (90.0, 89))  # 10 beyond
        self.assertEqual(metrics.tail_percentile(range(1000))[0], 99.0)
        self.assertEqual(metrics.tail_percentile(range(10000))[0], 99.9)

    def test_value_leaves_exactly_the_beyond_count_above(self):
        for n in (20, 57, 100, 333, 2048):
            values = [float(i) for i in range(n)]
            p, v = metrics.tail_percentile(list(reversed(values)))
            beyond = sum(1 for x in values if x > v)
            self.assertGreaterEqual(beyond, metrics.TAIL_MIN_BEYOND, (n, p))


class Names(unittest.TestCase):
    def test_charset(self):
        for good in ("setup_s", "hdc.train_s.idlevel", "dse.tier_busy_s.mc", "9a-b"):
            self.assertTrue(metrics.valid_name(good), good)
        for bad in ("", "_lead", ".lead", "a b", "ops/s", "x" * 65, "café"):
            self.assertFalse(metrics.valid_name(bad), bad)

    def test_every_metric_name_is_valid_and_unique(self):
        names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertTrue(metrics.valid_name(n), n)

    def test_benchmark_json_matches_the_metric_tables(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]],
                         list(metrics.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         list(metrics.PER_LAYER))


class Ops(unittest.TestCase):
    def test_ops_per_workload(self):
        self.assertEqual(metrics.unit_ops("serve_drift", {"output": {"arrivals": "1024"}}), 1024)
        self.assertEqual(metrics.unit_ops(
            "hdc_fit", {"output": {"train_samples": 520, "test_samples": 312}}), 2 * (520 + 312))
        self.assertEqual(metrics.unit_ops(
            "dse_sweep", {"output": {"cold_evaluations": 42, "warm_evaluations": 42}}), 42)
        with self.assertRaises(ValueError):
            metrics.unit_ops("nope", {"output": {}})

    def test_end_to_end_rate_uses_the_median_round(self):
        raw = {"setup_s": [0.3, 0.1, 0.2], "call_s": [0.01] * 30, "round_s": [1.0, 2.0, 9.0],
               "peak_rss_mb": 40.0,
               "checked": [{"output": {"arrivals": 100}}] * 3}
        values, info = metrics.end_to_end("serve_drift", raw)
        self.assertAlmostEqual(values["ops_per_s"], 300 / (2.0 * 3))
        self.assertAlmostEqual(values["setup_s"], 0.2)
        self.assertAlmostEqual(values["call_ms_p50"], 10.0)
        self.assertEqual(info, {"tail_percentile": 50.0, "calls": 30})
        raw["call_s"] = [0.01] * 18 + [0.05]
        self.assertEqual(metrics.end_to_end("serve_drift", raw)[1]["tail_percentile"], 100.0)


class Checks(unittest.TestCase):
    UNIT = {"key": "1",
            "output": {"arrivals": 1024, "floor_held": True, "overall_accuracy": 0.96,
                       "checksum": "123"}}

    def test_matching_reference_passes_and_checksum_is_not_checked(self):
        ref = {"1": {"arrivals": 1024, "floor_held": True, "overall_accuracy": 0.96,
                     "checksum": "999"}}
        self.assertEqual(metrics.check_outputs("serve_drift", [self.UNIT], ref), (1024, 0, []))

    def test_a_wrong_reference_is_caught(self):
        ref = {"1": {"arrivals": 1024, "floor_held": True, "overall_accuracy": 0.9600000001}}
        attempted, failed, problems = metrics.check_outputs("serve_drift", [self.UNIT], ref)
        self.assertEqual((attempted, failed), (1024, 1024))
        self.assertIn("overall_accuracy", problems[0])

    def test_missing_reference_fails(self):
        self.assertEqual(metrics.check_outputs("serve_drift", [self.UNIT], {})[1], 1024)

    def test_warm_bytes_must_equal_cold(self):
        unit = {"key": "1/face-like",
                "output": {"cold": "ab:10", "warm": "cd:10", "cold_evaluations": 42,
                           "warm_evaluations": 42}}
        ref = {"1/face-like": dict(unit["output"])}
        self.assertEqual(metrics.check_outputs("dse_sweep", [unit], ref)[1], 42)


class PerLayer(unittest.TestCase):
    def test_values_are_per_pass(self):
        raw = {"passes": 2, "traced_s": 11.0, "untraced_s": 10.0,
               "layer": {"xbar.factorizations": 8, "xbar.direct_solves": 80,
                         "dse.cache_hit_ratio": 2.0}}
        spans = [span(0, -1, "bench.loop", 0.0, 4.0), span(1, 0, "serve.age", 0.0, 4.0)]
        values = metrics.per_layer(raw, spans)
        self.assertEqual(set(values), {m[0] for m in metrics.PER_LAYER})
        self.assertAlmostEqual(values["xbar.factorizations"], 4)
        self.assertAlmostEqual(values["xbar.solves_per_factorization"], 10)
        self.assertAlmostEqual(values["serve.age_s"], 2.0)
        self.assertAlmostEqual(values["dse.cache_hit_ratio"], 1.0)
        self.assertAlmostEqual(values["trace.overhead_frac"], 0.1)
        self.assertAlmostEqual(values["trace.coverage_frac"], 1.0)
        self.assertEqual(values["cam.searches"], 0.0)


if __name__ == "__main__":
    unittest.main()
