#!/usr/bin/env python3
"""Unit tests for the bench regression gate (check_bench.py).

Run with: python3 scripts/test_check_bench.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench  # noqa: E402


class CheckFileTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, obj):
        path = os.path.join(self._dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write("progress line before the result\n")
            f.write(json.dumps(obj) + "\n")
        return path

    def rows_for(self, baseline, current, metric, tolerance=2.0):
        """check_file rows whose description names `metric`."""
        baseline_path = self.write("baseline.json", baseline)
        current_path = self.write("current.json", current)
        rows = check_bench.check_file(baseline_path, current_path, tolerance)
        return [row for row in rows if f".{metric}:" in row[1]]

    # persist.warmstart_speedup overrides the tolerance with 2.0x, so its
    # floor is 10.0 / 2.0 whatever the command line passes.
    def test_ratio_just_above_floor_passes(self):
        rows = self.rows_for({"bench": "persist", "warmstart_speedup": 10.0},
                             {"bench": "persist", "warmstart_speedup": 5.01},
                             "warmstart_speedup", tolerance=4.0)
        self.assertEqual([ok for ok, _ in rows], [True])

    def test_ratio_just_below_floor_fails(self):
        rows = self.rows_for({"bench": "persist", "warmstart_speedup": 10.0},
                             {"bench": "persist", "warmstart_speedup": 4.99},
                             "warmstart_speedup", tolerance=4.0)
        self.assertEqual([ok for ok, _ in rows], [False])

    def test_ratio_uses_command_line_tolerance_without_override(self):
        baseline = {"bench": "inference", "grouping_speedup": 3.0,
                    "runall_speedup": 6.0}
        current = dict(baseline, grouping_speedup=1.1)
        # Floor 1.0 at 3.0x passes; floor 1.5 at the 2.0x default fails.
        self.assertTrue(self.rows_for(baseline, current, "grouping_speedup",
                                      tolerance=3.0)[0][0])
        self.assertFalse(self.rows_for(baseline, current, "grouping_speedup",
                                       tolerance=2.0)[0][0])

    def test_ceiling_metric(self):
        # memory.bytes_per_triple may grow at most 1.1x: ceiling 110.
        baseline = {"bench": "memory", "bytes_per_triple": 100.0}
        under = self.rows_for(baseline,
                              {"bench": "memory", "bytes_per_triple": 109.9},
                              "bytes_per_triple")
        over = self.rows_for(baseline,
                             {"bench": "memory", "bytes_per_triple": 110.1},
                             "bytes_per_triple")
        self.assertEqual([ok for ok, _ in under], [True])
        self.assertEqual([ok for ok, _ in over], [False])

    def test_bool_gate_flipping_to_false_fails(self):
        baseline = {"bench": "persist", "scores_identical": True}
        held = self.rows_for(baseline,
                             {"bench": "persist", "scores_identical": True},
                             "scores_identical")
        flipped = self.rows_for(baseline,
                                {"bench": "persist", "scores_identical": False},
                                "scores_identical")
        self.assertEqual([ok for ok, _ in held], [True])
        self.assertEqual([ok for ok, _ in flipped], [False])

    def test_missing_current_file_fails(self):
        baseline_path = self.write("BENCH_persist.json",
                                   {"bench": "persist",
                                    "warmstart_speedup": 10.0})
        missing = os.path.join(self._dir.name, "absent.json")
        rows = check_bench.check_file(baseline_path, missing, 2.0)
        self.assertEqual(len(rows), 1)
        self.assertFalse(rows[0][0])
        self.assertIn("current run missing", rows[0][1])

    def test_current_file_for_another_bench_fails(self):
        baseline_path = self.write("baseline.json",
                                   {"bench": "persist",
                                    "warmstart_speedup": 10.0})
        current_path = self.write("current.json",
                                  {"bench": "streaming", "speedup": 10.0})
        rows = check_bench.check_file(baseline_path, current_path, 2.0)
        self.assertEqual(len(rows), 1)
        self.assertFalse(rows[0][0])
        self.assertIn("'streaming'", rows[0][1])


if __name__ == "__main__":
    unittest.main()
