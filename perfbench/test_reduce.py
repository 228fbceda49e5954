"""Tests of the benchmark's own arithmetic and schema.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import math
import os
import statistics
import unittest

import reduce
import schema

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def step(rate, due, recv, failed=None, start=0, end=None, batch=1,
         snap=None, cpu=0.0):
    n = len(due)
    return {
        "batch": batch, "rate": rate, "start_ns": start,
        "end_ns": end if end is not None else max(due) + 1,
        "server_cpu_s": cpu,
        "due_ns": due, "sent_ns": list(due), "recv_ns": recv,
        "snapshot_id": snap or [1] * n,
        "failed": failed or [0] * n, "traced": [0] * n, "warmup": 0,
    }


def summary(rate, p99, failed=0, grows=False, achieved=None):
    return {"rate": rate, "p99_ms": p99, "failed": failed,
            "backlog_grows": grows,
            "achieved_rps": achieved if achieved is not None else rate}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(reduce.percentile(xs, 50), 50)
        self.assertEqual(reduce.percentile(xs, 90), 90)
        self.assertEqual(reduce.percentile(list(reversed(xs)), 90), 90)

    def test_needs_ten_samples_beyond(self):
        self.assertEqual(reduce.percentile(range(1000), 99), 989)
        with self.assertRaises(ValueError):
            reduce.percentile(range(999), 99)
        with self.assertRaises(ValueError):
            reduce.percentile(range(19), 50)
        self.assertEqual(reduce.percentile(range(20), 50), 9)

    def test_empty(self):
        with self.assertRaises(ValueError):
            reduce.percentile([], 50)


class QuartileTest(unittest.TestCase):
    def test_spread_uses_statistics_quantiles(self):
        xs = list(range(1, 11))
        q1, _, q3 = statistics.quantiles(xs, n=4)
        self.assertEqual((q1, q3), (2.75, 8.25))
        self.assertAlmostEqual(reduce.quartile_spread(xs), 5.5 / 5.5)

    def test_steady_values_have_small_spread(self):
        xs = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
        self.assertLess(reduce.quartile_spread(xs), 0.03)


class BacklogTest(unittest.TestCase):
    def test_backlog_counts_due_but_unanswered(self):
        s = step(1000, due=[0, 10, 20, 30], recv=[5, 40, -1, 35])
        self.assertEqual(reduce.backlog_at(s, 0), 1)
        self.assertEqual(reduce.backlog_at(s, 20), 2)
        self.assertEqual(reduce.backlog_at(s, 36), 2)
        self.assertEqual(reduce.backlog_at(s, 100), 1)

    def test_growth_threshold(self):
        self.assertFalse(reduce.backlog_grows(1000, 3, 5))
        self.assertTrue(reduce.backlog_grows(1000, 3, 6))
        # At 8000 req/s one limit's worth of arrivals is 8 requests.
        self.assertFalse(reduce.backlog_grows(8000, 0, 8))
        self.assertTrue(reduce.backlog_grows(8000, 0, 9))


class MaxRateTest(unittest.TestCase):
    def test_highest_qualifying_rate_wins(self):
        steps = [summary(1000, 0.5, achieved=999.5),
                 summary(2000, 0.9, achieved=1999.0),
                 summary(4000, 1.5)]
        self.assertEqual(reduce.max_rate_rps(steps), 1999.0)

    def test_failures_and_growing_backlog_disqualify(self):
        steps = [summary(1000, 0.5, achieved=1000.0),
                 summary(2000, 0.5, failed=1),
                 summary(4000, 0.5, grows=True)]
        self.assertEqual(reduce.max_rate_rps(steps), 1000.0)

    def test_a_slow_low_rate_does_not_hide_a_fast_high_one(self):
        steps = [summary(1000, 3.0), summary(2000, 0.8, achieved=2000.0)]
        self.assertEqual(reduce.max_rate_rps(steps), 2000.0)

    def test_none_qualifies(self):
        self.assertEqual(reduce.max_rate_rps([summary(1000, 2.0)]), 0.0)

    def test_failed_requests_miss_the_limit(self):
        n = 2000
        due = list(range(0, n * 1000, 1000))
        recv = [d + 100_000 for d in due]
        failed = [1 if i % 50 == 0 else 0 for i in range(n)]
        s = reduce.rate_summary([step(1000, due, recv, failed,
                                      end=n * 1000)])
        self.assertTrue(math.isinf(s["p99_ms"]))
        self.assertFalse(reduce.qualifies(s))

    def test_rate_pools_its_steps(self):
        due = [i * 1000 for i in range(12)]
        fast = step(1000, due, [d + 100 for d in due], end=12000)
        # The last two requests of the slow step are still open at its end.
        slow = step(1000, due, [d + 100 for d in due[:10]] + [13000, 14000],
                    end=12000)
        s = reduce.rate_summary([fast, slow])
        self.assertEqual(s["requests"], 24)
        self.assertEqual(s["backlog_end"], 2)
        self.assertEqual(s["p99_ms"], math.inf)  # 24 samples cannot give it
        self.assertAlmostEqual(s["achieved_rps"], 24 / 24e-6)


class PerSizeTest(unittest.TestCase):
    def raw(self):
        due = [i * 1000 for i in range(40)]
        recv = [d + 100 for d in due]
        steps = [step(100, due, recv, batch=1, cpu=1.0),
                 step(100, due, recv, batch=64, cpu=2.0),
                 step(200, due, recv, batch=64, cpu=4.0,
                      failed=[1] * 10 + [0] * 30),
                 step(100, due, recv, batch=1, cpu=9.0)]
        steps[3]["warmup"] = 1
        return {"steps": steps, "batch_sizes": [1, 64],
                "middle_rates": [100, 200]}

    def test_read_cpu_counts_only_its_size_and_answered_requests(self):
        raw = self.raw()
        # The warm-up step's CPU is left out; failed requests do not count
        # as answered.
        self.assertAlmostEqual(reduce.read_cpu_us(raw, 1), 1.0e6 / 40)
        self.assertAlmostEqual(reduce.read_cpu_us(raw, 64), 6.0e6 / 70)

    def test_middle_steps_pick_the_size_and_its_middle_rate(self):
        raw = self.raw()
        self.assertEqual([s["rate"] for s in reduce.middle_steps(raw, 64)],
                         [200])
        self.assertEqual(len(reduce.middle_steps(raw, 1)), 1)

    def test_summaries_are_per_size_and_rate(self):
        keys = [(s["batch"], s["rate"])
                for s in reduce.rate_summaries(self.raw())]
        self.assertEqual(keys, [(1, 100), (64, 100), (64, 200)])


class TraceTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [["bench.build", 0, 100, 1, 0, 0],
                 ["model.load", 10, 40, 2, 1, 0],
                 ["core.model", 30, 60, 3, 1, 0],
                 ["persist.save", 70, 80, 4, 1, 0]]
        selfs = dict(reduce.self_times(spans))
        self.assertAlmostEqual(selfs["bench.build"], 40e-9)
        self.assertAlmostEqual(selfs["model.load"], 30e-9)

    def test_freshness_waits_for_the_published_id(self):
        writer = [{"start_ns": 1_000_000, "snapshot_id": 5, "failed": 0},
                  {"start_ns": 9_000_000, "snapshot_id": 7, "failed": 0}]
        s = step(1000, due=[0, 1, 2, 3], recv=[2_000_000, 4_000_000,
                                                 5_000_000, 9_500_000],
                 snap=[4, 5, 6, 6])
        self.assertEqual(reduce.freshness_ms(writer, [s]), [3.0])


class SchemaTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_checked_in_spec_is_valid(self):
        schema.validate_spec(self.spec)
        for path in self.spec["paths"]:
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)))

    def test_spec_violations(self):
        bad = copy.deepcopy(self.spec)
        bad["extra"] = 1
        with self.assertRaises(ValueError):
            schema.validate_spec(bad)
        bad = copy.deepcopy(self.spec)
        bad["end_to_end"][0]["bound"] = 0.3
        with self.assertRaises(ValueError):
            schema.validate_spec(bad)
        bad = copy.deepcopy(self.spec)
        bad["end_to_end"] = [m for m in bad["end_to_end"]
                             if m["name"] != "setup_s"]
        with self.assertRaises(ValueError):
            schema.validate_spec(bad)
        bad = copy.deepcopy(self.spec)
        bad["per_layer"].append(dict(bad["per_layer"][0]))
        with self.assertRaises(ValueError):
            schema.validate_spec(bad)

    def result(self, trace):
        wanted = self.spec["per_layer"] if trace else self.spec["end_to_end"]
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                            for m in wanted}}

    def test_result_line(self):
        for trace in (0, 1):
            schema.validate_result(self.result(trace), self.spec, trace)
        bad = self.result(0)
        bad["metrics"].popitem()
        with self.assertRaises(ValueError):
            schema.validate_result(bad, self.spec, 0)
        bad = self.result(0)
        next(iter(bad["metrics"].values()))["value"] = 0
        with self.assertRaises(ValueError):
            schema.validate_result(bad, self.spec, 0)
        bad = self.result(1)
        bad["attempted"] = 0
        with self.assertRaises(ValueError):
            schema.validate_result(bad, self.spec, 1)


class ReduceRecordTest(unittest.TestCase):
    """A small synthetic raw record reduces to every declared metric."""

    def raw(self):
        n = 1200
        steps = []
        for k, (batch, rate) in enumerate(
                ((64, 2000), (1, 1000), (64, 2000), (1024, 100), (1, 2000),
                 (64, 1000), (1024, 200))):
            base = k * 10**9
            due = [base + i * 500_000 for i in range(n)]
            recv = [d + 150_000 + (i % 7) * 1000 for i, d in enumerate(due)]
            s = step(rate, due, recv, start=base, end=base + n * 500_000,
                     batch=batch, snap=[1 + i // 400 for i in range(n)],
                     cpu=0.1)
            s["traced"] = [i % 2 for i in range(n)]
            s["warmup"] = int(k == 0)
            steps.append(s)
        spans = [["bench.build", 0, 100, 1, 0, 0],
                 ["model.load", 0, 60, 2, 1, 0],
                 ["core.model", 60, 90, 3, 1, 0]]
        return {
            "shards": 1, "steps": steps, "batch_sizes": [1, 64, 1024],
            "middle_rates": [1000, 2000, 100],
            "build_s": [1.0, 1.2, 1.1], "build_traced_s": [1.2],
            "setup_s": [0.1, 0.2, 0.15], "auc_pr": 0.9, "peak_rss_mb": 100.0,
            "host_steal_frac": 0.01,
            "writer": [{"start_ns": 1_000_000_000, "update_s": 0.01,
                        "publish_s": 0.01, "observations": 100,
                        "snapshot_id": 2, "failed": 0},
                       {"start_ns": 1_100_000_000, "update_s": 0.01,
                        "publish_s": 0.01, "observations": 100,
                        "snapshot_id": 3, "failed": 0},
                       {"start_ns": 1_200_000_000, "update_s": 0.1,
                        "publish_s": 0.1, "observations": 100,
                        "snapshot_id": 4, "failed": 0}],
            "parse_s": 0.5, "discovery_s": 0.0, "bytes_per_triple": 100.0,
            "clusters": 3, "distinct_patterns": 30, "snapshot_bytes": 1e6,
            "updates_applied": 1, "full_invalidations": 0,
            "inprocess_us": [5.0] * 40, "inprocess_size": [64] * 40,
            "server": {"requests": 1, "errors": 0, "connections": 1},
            "phases": {"build": {"attempted": 3, "failed": 0}},
            "spans": spans,
        }

    def test_reduces(self):
        n = 1200
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        raw = self.raw()
        e2e = reduce.end_to_end(raw)
        layers = reduce.per_layer(raw)
        for m in spec["end_to_end"]:
            self.assertIn(m["name"], e2e)
        for m in spec["per_layer"]:
            self.assertIn(m["name"], layers)
        self.assertEqual(e2e["build_s"], 1.1)
        self.assertEqual(e2e["setup_s"], 0.15)
        # The median batch's rate; the stalled third batch does not pull
        # it down.
        self.assertEqual(e2e["update_obs_per_s"], 100 / 0.02)
        self.assertAlmostEqual(layers["build_share.model"], 0.6)
        self.assertAlmostEqual(layers["build_share.core"], 0.3)
        self.assertAlmostEqual(e2e["read_cpu_us.b1024"], 0.2e6 / (2 * n))
        self.assertEqual(layers["serving.score_batch_p50_us.b64"], 5.0)
        self.assertEqual(layers["serving.score_batch_p50_us.b1"], 0.0)


if __name__ == "__main__":
    unittest.main()
