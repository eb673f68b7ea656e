#!/usr/bin/env python3
"""Compare a parent run set with a change run set.

    python3 perf/compare.py PARENT_DIR CHANGE_DIR

Each directory holds results files written by `perf/run.py --out`. A
file pairs with the file of the same name in the other directory, so
name them by workload, seed and pair number, and run the two sides
alternately: at least 10 pairs per workload before any verdict but
"unresolved".

For every (workload, end-to-end metric) it prints each side's median
and quartiles and one verdict, using the bounds in BENCHMARK.json.
Alternating pairs see the same stretches of host speed, so the rule
reads the per-pair ratios change / parent rather than the two sides'
medians, which a slow stretch of a few minutes can move by more than a
bound:

  unresolved     fewer than 10 pairs, or the ratios' spread (IQR /
                 median) exceeds the metric's bound: the pairs do not
                 agree well enough to call the metric either way;
  gain           the change wins at least 9 of 10 pairs (ties count for
                 neither) and the medians differ by more than the
                 parent's interquartile range;
  regression     the median ratio puts the change worse than the parent
                 by more than the bound;
  no regression  otherwise.

It fails (exit 1) on a regression, on a paired report_digest that
differs (the two sides did not simulate the same thing), on a rise in
failed_frac, or on a change run whose output checks failed. Per-layer
metrics from traced runs (--trace 1) are summarised without verdicts.
Standard library only.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
GAIN_WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def judge(parent, change, better, bound):
    """Verdict for one metric over paired runs (parent[i] ~ change[i])."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    # End-to-end metrics are never 0; a pair with a 0 parent has no ratio.
    ratios = [c / p for p, c in zip(parent, change) if p]
    ratio = quartiles(ratios)[1] if ratios else 1.0
    row = {
        "parent": quartiles(parent),
        "change": quartiles(change),
        "pairs": len(parent),
        "wins": wins,
        "worse_frac": sign * (1.0 - ratio),
        "spread": spread(ratios) if ratios else float("inf"),
        "bound": bound,
    }
    if len(ratios) < MIN_PAIRS:
        row["verdict"] = "unresolved"
    elif (wins >= GAIN_WIN_SHARE * len(parent)
            and abs(c_med - p_med) > p_q3 - p_q1
            and sign * (c_med - p_med) > 0):
        row["verdict"] = "gain"
    elif row["spread"] > bound:
        row["verdict"] = "unresolved"
    elif row["worse_frac"] > bound:
        row["verdict"] = "regression"
    else:
        row["verdict"] = "no regression"
    return row


def compare(parent, change, bench):
    """Compare two run sets.

    parent, change: {file name: results dict} as run.py writes them.
    bench: the parsed BENCHMARK.json.
    Returns {"rows": [...], "layers": [...], "problems": [...]}; any
    problem means the change must not land.
    """
    problems = []
    names = sorted(set(parent) & set(change))
    if not names:
        problems.append("no results file appears in both directories")
    for name in names:
        p, c = parent[name], change[name]
        if p["report_digest"] != c["report_digest"]:
            problems.append(f"{name}: report_digest differs "
                            f"({p['report_digest']} vs {c['report_digest']})")
        if not c["correct"]:
            problems.append(f"{name}: the change run failed an output check")

    by_workload = {}
    for name in names:
        p, c = parent[name], change[name]
        by_workload.setdefault((p["workload"], p["trace"]), []).append((p, c))

    rows, layers = [], []
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    for (workload, trace), runs in sorted(by_workload.items()):
        p_failed = [p["failed_frac"] for p, _ in runs]
        c_failed = [c["failed_frac"] for _, c in runs]
        if max(c_failed) > max(p_failed):
            problems.append(f"{workload}: failed_frac rose from "
                            f"{max(p_failed)} to {max(c_failed)}")
        names_here = sorted(set(runs[0][0]["metrics"]) &
                            set(runs[0][1]["metrics"]))
        for metric in names_here:
            pv = [p["metrics"][metric]["value"] for p, _ in runs]
            cv = [c["metrics"][metric]["value"] for _, c in runs]
            if trace or metric not in metrics:
                layers.append({"workload": workload, "metric": metric,
                               "parent": quartiles(pv),
                               "change": quartiles(cv)})
                continue
            m = metrics[metric]
            row = judge(pv, cv, m["better"], m["bound"])
            row.update(workload=workload, metric=metric, unit=m["unit"])
            rows.append(row)
            if row["verdict"] == "regression":
                problems.append(
                    f"{workload} {metric}: {row['worse_frac']:+.1%} worse, "
                    f"bound {m['bound']:.0%}")
    return {"rows": rows, "layers": layers, "problems": problems}


def load_dir(path):
    out = {}
    for f in sorted(Path(path).glob("*.json")):
        if f.name.endswith(".trace.json"):
            continue
        out[f.name] = json.loads(f.read_text())
    return out


def fmt(q):
    q1, med, q3 = q
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    bench = json.loads(BENCHMARK.read_text())
    result = compare(load_dir(argv[1]), load_dir(argv[2]), bench)
    print(f"{'workload':<12} {'metric':<14} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'worse':>7} {'spread':>7} "
          f"{'wins':>6}  verdict")
    for r in result["rows"]:
        print(f"{r['workload']:<12} {r['metric']:<14} {fmt(r['parent']):<34} "
              f"{fmt(r['change']):<34} {r['worse_frac']:>+7.1%} "
              f"{r['spread']:>7.1%} {r['wins']:>2}/{r['pairs']:<3}  "
              f"{r['verdict']}")
    if result["layers"]:
        print("\nper-layer (no verdict)")
        for r in result["layers"]:
            print(f"{r['workload']:<12} {r['metric']:<32} "
                  f"{fmt(r['parent']):<34} {fmt(r['change'])}")
    for p in result["problems"]:
        print("FAIL:", p)
    return 1 if result["problems"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
