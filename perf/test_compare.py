#!/usr/bin/env python3
"""Tests of perf/compare.py's verdicts and a lint of BENCHMARK.json.

    python3 -m unittest perf/test_compare.py

Standard library only.
"""

import json
import re
import sys
import unittest
from pathlib import Path

PERF = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF))

import compare  # noqa: E402

ROOT = PERF.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")

BENCH = {
    "end_to_end": [
        {"name": "host_mips", "unit": "Minstr/s", "better": "higher",
         "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}


def result(seed, mips, setup=1.0, digest="d0", failed_frac=0.0,
           correct=True):
    return {
        "workload": "core_long", "seed": seed, "trace": 0,
        "correct": correct, "failed_frac": failed_frac,
        "report_digest": digest,
        "metrics": {
            "host_mips": {"value": mips, "unit": "Minstr/s"},
            "setup_s": {"value": setup, "unit": "s"},
        },
    }


def run_set(mips, **kw):
    return {f"core_long-seed{i}.json": result(i, v, **kw)
            for i, v in enumerate(mips)}


def verdict(out, metric="host_mips"):
    return next(r["verdict"] for r in out["rows"] if r["metric"] == metric)


STEADY = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9]


class CompareRule(unittest.TestCase):
    def test_win(self):
        out = compare.compare(run_set(STEADY),
                              run_set([v * 1.05 for v in STEADY]), BENCH)
        self.assertEqual(verdict(out), "gain")
        self.assertEqual(out["problems"], [])

    def test_loss(self):
        out = compare.compare(run_set(STEADY),
                              run_set([v * 0.8 for v in STEADY]), BENCH)
        self.assertEqual(verdict(out), "regression")
        self.assertTrue(any("host_mips" in p for p in out["problems"]))

    def test_tie(self):
        out = compare.compare(run_set(STEADY), run_set(STEADY), BENCH)
        self.assertEqual(verdict(out), "no regression")
        self.assertEqual(verdict(out, "setup_s"), "no regression")
        self.assertEqual(out["problems"], [])

    def test_small_loss_within_bound_is_no_regression(self):
        out = compare.compare(run_set(STEADY),
                              run_set([v * 0.95 for v in STEADY]), BENCH)
        self.assertEqual(verdict(out), "no regression")

    def test_unresolved_when_pairs_disagree(self):
        factors = [0.7, 1.3, 0.9, 1.2, 0.75, 1.1, 0.8, 1.25, 0.95, 1.15]
        out = compare.compare(run_set(STEADY),
                              run_set([v * f for v, f in
                                       zip(STEADY, factors)]), BENCH)
        self.assertEqual(verdict(out), "unresolved")
        self.assertEqual(out["problems"], [])

    def test_one_pair_is_unresolved_even_when_far_worse(self):
        out = compare.compare(run_set(STEADY[:1]),
                              run_set([STEADY[0] * 0.6]), BENCH)
        self.assertEqual(verdict(out), "unresolved")
        self.assertEqual(out["problems"], [])

    def test_drift_shared_by_each_pair_is_no_regression(self):
        # The host slows to 0.65x for the second half of the pairs; both
        # sides see it, so the ratios agree although the medians do not.
        parent = [v * (1.0 if i < 5 else 0.65) for i, v in enumerate(STEADY)]
        change = [v * (0.98 if i < 5 else 0.65 * 1.02)
                  for i, v in enumerate(STEADY)]
        change[4] *= 0.6  # one pair lands in the slow stretch unevenly
        out = compare.compare(run_set(parent), run_set(change), BENCH)
        self.assertEqual(verdict(out), "no regression")

    def test_gain_needs_nine_of_ten_wins(self):
        change = [v * (1.05 if i < 7 else 0.99) for i, v in enumerate(STEADY)]
        out = compare.compare(run_set(STEADY), run_set(change), BENCH)
        self.assertEqual(verdict(out), "no regression")

    def test_gain_needs_a_shift_beyond_the_parent_iqr(self):
        parent = [10.0, 10.4, 9.6, 10.3, 9.7, 10.2, 9.8, 10.1, 9.9, 10.0]
        out = compare.compare(run_set(parent),
                              run_set([v + 0.05 for v in parent]), BENCH)
        self.assertEqual(verdict(out), "no regression")

    def test_gain_needs_ten_pairs(self):
        out = compare.compare(run_set(STEADY[:5]),
                              run_set([v * 1.05 for v in STEADY[:5]]), BENCH)
        self.assertEqual(verdict(out), "unresolved")

    def test_failed_frac_increase_fails(self):
        change = run_set(STEADY)
        change["core_long-seed3.json"]["failed_frac"] = 0.01
        out = compare.compare(run_set(STEADY), change, BENCH)
        self.assertTrue(any("failed_frac" in p for p in out["problems"]))

    def test_digest_mismatch_fails(self):
        change = run_set(STEADY)
        change["core_long-seed0.json"]["report_digest"] = "other"
        out = compare.compare(run_set(STEADY), change, BENCH)
        self.assertTrue(any("report_digest" in p for p in out["problems"]))

    def test_failed_check_fails(self):
        out = compare.compare(run_set(STEADY),
                              run_set(STEADY, correct=False), BENCH)
        self.assertTrue(any("output check" in p for p in out["problems"]))


class BenchmarkLint(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.layers = json.loads((PERF / "layers.json").read_text())
        cls.driver = (PERF / "driver.cpp").read_text()

    def test_keys_and_limits(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
            self.assertTrue((ROOT / p).is_dir())
        self.assertTrue(1 <= len(b["command"]) <= 32)
        self.assertTrue(all(len(c) <= 200 for c in b["command"]))
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)

    def test_names_units_bounds(self):
        b = self.bench
        names = []
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))
        self.assertLessEqual(len((ROOT / "BENCHMARK.json").read_bytes()),
                             64 * 1024)

    def test_every_layer_metric_moves_existing_metrics(self):
        e2e = {m["name"] for m in self.bench["end_to_end"]} | {"failed_frac"}
        workloads = {w["name"] for w in self.bench["workloads"]}
        per_layer = {m["name"] for m in self.bench["per_layer"]}
        entries = {k: v for k, v in self.layers.items()
                   if not k.startswith("_")}
        self.assertEqual(per_layer, {k for k, v in entries.items()
                                     if v["where"] == "per_layer"})
        for name, entry in entries.items():
            self.assertRegex(name, NAME)
            self.assertIn(entry["where"], ("per_layer", "extra"))
            for move in entry["moves"]:
                self.assertIn(move["metric"], e2e, name)
                self.assertTrue(move["workloads"], name)
                for w in move["workloads"]:
                    self.assertIn(w, workloads, name)

    def test_driver_emits_every_metric_and_workload(self):
        for m in self.bench["end_to_end"]:
            self.assertIn(f'"{m["name"]}"', self.driver)
        for name in self.layers:
            if not name.startswith("_"):
                self.assertIn(f'"{name}"', self.driver)
        for w in self.bench["workloads"]:
            self.assertIn(f'"{w["name"]}"', self.driver)


if __name__ == "__main__":
    unittest.main()
