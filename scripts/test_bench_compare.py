#!/usr/bin/env python3
"""Tests for scripts/bench_compare.py: how repeated rows combine, and the
exit codes of the gate CI runs against BENCH_baseline.json.

    python3 scripts/test_bench_compare.py
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "bench_compare.py")

_spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

# CI's gate thresholds (.github/workflows/ci.yml).
CI_ARGS = ["--threshold-pct", "15", "--p99-threshold-pct", "100"]


def row(**fields):
    """One bench row: a fixed trial identity plus the given fields."""
    r = {
        "experiment": "skew_sweep",
        "algo": "int-avl-pathcas",
        "threads": 2,
        "key_range": 1000,
        "dist": "zipfian:0.99",
        "mix": "ycsb-b",
        "update_pct": 5.0,
        "rq_pct": 0.0,
        "rq_size": 0,
        "mops": 2.0,
        "p99_ns": 1000.0,
    }
    r.update(fields)
    return r


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, rows):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            for r in rows:
                f.write(json.dumps(r) + "\n")
        return path

    def compare(self, base_rows, new_rows):
        base = self.write("base.jsonl", base_rows)
        new = self.write("new.jsonl", new_rows)
        proc = subprocess.run(
            [sys.executable, SCRIPT, base, new] + CI_ARGS,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        return proc.returncode

    def test_repeated_rows_combine_by_median(self):
        path = self.write("runs.jsonl", [
            row(mops=2.0, p99_ns=1000.0, goodput_mops=1.0),
            row(mops=2.2, p99_ns=1100.0, goodput_mops=1.2),
            row(mops=9.0, p99_ns=50000.0, goodput_mops=9.0),
        ])
        ((mops, p99, good),) = bench_compare.load(path).values()
        self.assertEqual(mops, 2.2)
        self.assertEqual(p99, 1100.0)
        self.assertEqual(good, 1.2)

    def test_one_outlier_run_does_not_trip_the_gate(self):
        base = [row(), row(), row()]
        # A mean would put p99 at 17x the baseline; the median does not move.
        new = [row(), row(), row(p99_ns=50000.0)]
        self.assertEqual(self.compare(base, new), 0)

    def test_file_compared_with_itself_passes(self):
        rows = [row(), row(algo="int-bst-pathcas", mops=4.0, p99_ns=700.0)]
        self.assertEqual(self.compare(rows, rows), 0)

    def test_mops_drop_of_20_pct_fails(self):
        self.assertEqual(self.compare([row()], [row(mops=1.6)]), 1)

    def test_p99_rise_of_2_5x_fails(self):
        self.assertEqual(self.compare([row()], [row(p99_ns=2500.0)]), 1)

    def test_broken_admission_accounting_is_a_parse_error(self):
        bad = row(ops_offered=100, ops_admitted=90, ops_shed=5,
                  ops_rejected=4)
        self.assertEqual(self.compare([row()], [bad]), 2)


if __name__ == "__main__":
    unittest.main()
