#!/usr/bin/env python3
"""Validate p10ee machine-readable artifacts.

Default mode checks "p10ee-report/1" reports (the BENCH_*.json /
--out format documented in src/obs/report.h): exact top-level
shape, the meta block, and the scalar/table/series sections. With
--trace, files are checked as Chrome/Perfetto JSON traces instead
(loadable JSON, a traceEvents array, counter and slice events well
formed). With --sweep, files get the default report checks plus the
merged-sweep invariants from src/sweep/runner.h: a "sweep shards"
table whose row count matches the sweep.shards scalar, unique shard
ids, valid status values, and the zeroed wall-clock meta fields that
make merged reports a pure function of the spec. Reports carrying
cache provenance (the sweep.cached / sweep.simulated scalars emitted
by p10sweep_cli --cache-stats) additionally get the conservation
check: cached + simulated shards must sum to the total. With --fleet,
files are checked as fleet provenance sidecars (p10fleet
--fleet-stats): the default report checks plus the full fleet.*
counter set from src/fabric/fleet.h and its internal accounting
(dead workers never exceed workers, locally-run and skipped shards
never exceed the shard total, nothing dispatched to an empty fleet).

With --metrics, files are checked as metrics-registry sidecars
(p10fleet/p10sweep_cli/p10d --metrics-out): the default report checks
plus every scalar being numeric and non-negative — counters, gauges
and histogram expansions (name.count/.max/.sum) can never go below
zero. Fleet traces (those with a "trace:<id>" pseudo-thread naming the
root TraceContext) additionally get distributed-trace checks: the
trace id must have the exact 32-hex + "-" + 16-hex wire shape, slice
timestamps must be monotonic within each lane, and counter samples
must be non-negative.

With --chip, files get the full --sweep checks plus the chip-shard
invariants from src/sweep/runner.h: a "chip shards" table (one row per
multi-core shard, cores >= 2, row count matching the chip.shards
scalar) and a "chip cores" table whose per-core rows must roll up
exactly to their shard — instrs sum to the shard's instrs, effective
cycles equal commit cycles plus non-negative stall cycles, the shard's
chip_cycles is the slowest core's effective cycles, and the per-core
power sums to the shard's power within rounding tolerance.

With --trace-workload, files get the full --sweep checks plus the
trace-workload provenance invariants from src/sweep/runner.h: a
"trace workloads" table (workload, trace, content_hash) whose hashes
are exactly 16 lowercase hex digits, one row per distinct trace:*
workload, and every trace:* workload appearing in the "sweep shards"
table present in it — so a merged report over trace containers always
records which trace content produced it.

Usage:
  validate_report.py report.json [more.json ...]
  validate_report.py --trace trace.json [more.json ...]
  validate_report.py --sweep merged.json [more.json ...]
  validate_report.py --chip merged.json [more.json ...]
  validate_report.py --trace-workload merged.json [more.json ...]
  validate_report.py --fleet stats.json [more.json ...]
  validate_report.py --metrics metrics.json [more.json ...]

Exits non-zero naming every failing file; CI runs it over every
artifact the bench smoke stage emits. Stdlib only.
"""

import json
import re
import sys

NUM = (int, float)

# The wire shape of a TraceContext (src/obs/trace.h): 32 lowercase hex
# chars, '-', 16 lowercase hex chars.
TRACE_THREAD_RE = re.compile(r"^trace:[0-9a-f]{32}-[0-9a-f]{16}$")


def _fail(errors, path, msg):
    errors.append(f"{path}: {msg}")


def validate_report(path, doc, errors):
    if not isinstance(doc, dict):
        return _fail(errors, path, "top level is not an object")
    expected_keys = {"schema", "meta", "scalars", "tables", "series"}
    if set(doc) != expected_keys:
        return _fail(
            errors, path,
            f"top-level keys {sorted(doc)} != {sorted(expected_keys)}")
    if doc["schema"] != "p10ee-report/1":
        return _fail(errors, path,
                     f"schema '{doc['schema']}' != 'p10ee-report/1'")

    meta = doc["meta"]
    meta_types = {
        "tool": str, "config": str, "workload": str, "seed": int,
        "git": str, "wall_s": NUM, "sim_instrs": int, "host_mips": NUM,
    }
    if not isinstance(meta, dict) or set(meta) != set(meta_types):
        return _fail(errors, path, f"meta keys {sorted(meta)} wrong")
    for key, typ in meta_types.items():
        if not isinstance(meta[key], typ) or isinstance(meta[key], bool):
            _fail(errors, path, f"meta.{key} has wrong type")
    if not meta.get("tool"):
        _fail(errors, path, "meta.tool is empty")
    if isinstance(meta.get("wall_s"), NUM) and meta["wall_s"] < 0:
        _fail(errors, path, "meta.wall_s is negative")

    scalars = doc["scalars"]
    if not isinstance(scalars, dict):
        _fail(errors, path, "scalars is not an object")
    else:
        for name, value in scalars.items():
            if value is not None and not isinstance(value, NUM):
                _fail(errors, path, f"scalar '{name}' is not numeric")

    tables = doc["tables"]
    if not isinstance(tables, list):
        _fail(errors, path, "tables is not an array")
    else:
        for i, t in enumerate(tables):
            if (not isinstance(t, dict)
                    or set(t) != {"title", "columns", "rows"}):
                _fail(errors, path, f"tables[{i}] malformed")
                continue
            ncol = len(t["columns"])
            if not all(isinstance(c, str) for c in t["columns"]):
                _fail(errors, path, f"tables[{i}] non-string column")
            for j, row in enumerate(t["rows"]):
                if len(row) != ncol:
                    _fail(errors, path,
                          f"tables[{i}].rows[{j}] has {len(row)} cells, "
                          f"expected {ncol}")
                if not all(isinstance(c, str) for c in row):
                    _fail(errors, path,
                          f"tables[{i}].rows[{j}] non-string cell")

    # Cache-provenance conservation: whenever a report carries the
    # sweep.cached / sweep.simulated split (the --cache-stats sidecar,
    # or any future report embedding it), every shard must be accounted
    # exactly once.
    if isinstance(scalars, dict) and "sweep.cached" in scalars:
        cached = scalars.get("sweep.cached")
        simulated = scalars.get("sweep.simulated")
        total = scalars.get("sweep.shards")
        if not isinstance(simulated, NUM):
            _fail(errors, path,
                  "sweep.cached present without numeric sweep.simulated")
        elif not isinstance(total, NUM) or not isinstance(cached, NUM):
            _fail(errors, path,
                  "sweep.cached present without numeric sweep.shards")
        elif cached + simulated != total:
            _fail(errors, path,
                  f"sweep.cached ({cached}) + sweep.simulated "
                  f"({simulated}) != sweep.shards ({total})")

    series = doc["series"]
    if not isinstance(series, list):
        _fail(errors, path, "series is not an array")
    else:
        for i, s in enumerate(series):
            if (not isinstance(s, dict)
                    or set(s) != {"name", "unit", "x", "y"}):
                _fail(errors, path, f"series[{i}] malformed")
                continue
            if len(s["x"]) != len(s["y"]):
                _fail(errors, path,
                      f"series[{i}] ('{s['name']}') x/y length mismatch")
            for axis in ("x", "y"):
                if not all(v is None or isinstance(v, NUM)
                           for v in s[axis]):
                    _fail(errors, path,
                          f"series[{i}].{axis} non-numeric entry")


SWEEP_COLUMNS = ["shard", "config", "workload", "smt", "seed",
                 "status", "retries", "cycles", "ipc", "power_w"]
SWEEP_STATUSES = {"ok", "invalid_argument", "invalid_config",
                  "not_found", "timeout", "transient", "overloaded",
                  "cancelled", "internal"}


def validate_sweep(path, doc, errors):
    """Merged sweep report: the default checks plus sweep invariants."""
    before = len(errors)
    validate_report(path, doc, errors)
    if len(errors) != before:
        return

    scalars = doc["scalars"]
    for name in ("sweep.shards", "sweep.ok", "sweep.failed",
                 "sweep.retries"):
        if not isinstance(scalars.get(name), NUM):
            _fail(errors, path, f"missing numeric scalar '{name}'")

    table = next((t for t in doc["tables"]
                  if t["title"] == "sweep shards"), None)
    if table is None:
        return _fail(errors, path, "no 'sweep shards' table")
    if table["columns"] != SWEEP_COLUMNS:
        return _fail(errors, path,
                     f"'sweep shards' columns {table['columns']} != "
                     f"{SWEEP_COLUMNS}")

    rows = table["rows"]
    if scalars.get("sweep.shards") != len(rows):
        _fail(errors, path,
              f"sweep.shards={scalars.get('sweep.shards')} but the "
              f"'sweep shards' table has {len(rows)} rows")
    shard_ids = [row[0] for row in rows]
    if len(set(shard_ids)) != len(shard_ids):
        _fail(errors, path, "duplicate shard ids in 'sweep shards'")
    ok_rows = 0
    for j, row in enumerate(rows):
        status = row[SWEEP_COLUMNS.index("status")]
        if status not in SWEEP_STATUSES:
            _fail(errors, path,
                  f"'sweep shards' rows[{j}] bad status '{status}'")
        ok_rows += status == "ok"
    if scalars.get("sweep.ok") != ok_rows:
        _fail(errors, path,
              f"sweep.ok={scalars.get('sweep.ok')} but {ok_rows} rows "
              f"have status ok")

    # Merged reports must be a pure function of the spec: real timing
    # goes to stderr, never into the artifact.
    meta = doc["meta"]
    if meta.get("wall_s") != 0:
        _fail(errors, path, "merged report meta.wall_s is not 0")
    if meta.get("host_mips") != 0:
        _fail(errors, path, "merged report meta.host_mips is not 0")


TRACE_WORKLOAD_COLUMNS = ["workload", "trace", "content_hash"]
CONTENT_HASH_RE = re.compile(r"^[0-9a-f]{16}$")


def validate_trace_workload(path, doc, errors):
    """Merged sweep report over trace:* workloads: the full --sweep
    checks plus the trace provenance table (workload name + content
    hash for every replayed container)."""
    before = len(errors)
    validate_sweep(path, doc, errors)
    if len(errors) != before:
        return

    table = next((t for t in doc["tables"]
                  if t["title"] == "trace workloads"), None)
    if table is None:
        return _fail(errors, path, "no 'trace workloads' table")
    if table["columns"] != TRACE_WORKLOAD_COLUMNS:
        return _fail(errors, path,
                     f"'trace workloads' columns {table['columns']} "
                     f"!= {TRACE_WORKLOAD_COLUMNS}")

    covered = set()
    for j, row in enumerate(table["rows"]):
        workload, trace, content_hash = row
        if not workload.startswith("trace:"):
            _fail(errors, path,
                  f"'trace workloads' rows[{j}] workload '{workload}' "
                  f"lacks the trace: scheme")
        if workload != "trace:" + trace:
            _fail(errors, path,
                  f"'trace workloads' rows[{j}] trace '{trace}' does "
                  f"not match workload '{workload}'")
        if not CONTENT_HASH_RE.match(content_hash):
            _fail(errors, path,
                  f"'trace workloads' rows[{j}] content_hash "
                  f"'{content_hash}' is not 16 lowercase hex digits")
        if workload in covered:
            _fail(errors, path,
                  f"duplicate 'trace workloads' row for '{workload}'")
        covered.add(workload)

    shards = next(t for t in doc["tables"]
                  if t["title"] == "sweep shards")
    wl_col = shards["columns"].index("workload")
    for j, row in enumerate(shards["rows"]):
        workload = row[wl_col]
        if workload.startswith("trace:") and workload not in covered:
            _fail(errors, path,
                  f"shard workload '{workload}' missing from the "
                  f"'trace workloads' table")


CHIP_SHARD_COLUMNS = ["shard", "cores", "status", "chip_cycles",
                      "instrs", "ipc", "power_w", "freq_ghz", "boost",
                      "throttled_epochs", "droop_trips"]
CHIP_CORE_COLUMNS = ["shard", "core", "cycles", "stall_cycles",
                     "eff_cycles", "instrs", "ipc", "power_w",
                     "freq_ghz"]


def validate_chip(path, doc, errors):
    """Merged sweep report over chip shards (cores >= 2): the full
    --sweep checks plus the chip rollup invariants — every per-core
    row must account exactly for its shard's instrs and cycles, stall
    counters can never go negative, and the chip power is the sum of
    its cores' power (within table-rounding tolerance: the cells hold
    values rounded to 3 decimals, so sum-of-rounded and
    rounded-of-sum legitimately differ by a few milliwatts)."""
    before = len(errors)
    validate_sweep(path, doc, errors)
    if len(errors) != before:
        return

    scalars = doc["scalars"]
    if not isinstance(scalars.get("chip.shards"), NUM):
        return _fail(errors, path,
                     "missing numeric scalar 'chip.shards'")

    shards_t = next((t for t in doc["tables"]
                     if t["title"] == "chip shards"), None)
    if shards_t is None:
        return _fail(errors, path, "no 'chip shards' table")
    if shards_t["columns"] != CHIP_SHARD_COLUMNS:
        return _fail(errors, path,
                     f"'chip shards' columns {shards_t['columns']} "
                     f"!= {CHIP_SHARD_COLUMNS}")
    cores_t = next((t for t in doc["tables"]
                    if t["title"] == "chip cores"), None)
    if cores_t is None:
        return _fail(errors, path, "no 'chip cores' table")
    if cores_t["columns"] != CHIP_CORE_COLUMNS:
        return _fail(errors, path,
                     f"'chip cores' columns {cores_t['columns']} "
                     f"!= {CHIP_CORE_COLUMNS}")

    if scalars["chip.shards"] != len(shards_t["rows"]):
        _fail(errors, path,
              f"chip.shards={scalars['chip.shards']} but the "
              f"'chip shards' table has {len(shards_t['rows'])} rows")

    sweep_ids = {row[0] for row in
                 next(t for t in doc["tables"]
                      if t["title"] == "sweep shards")["rows"]}

    # Group the per-core rows by owning shard id for the rollup checks.
    core_rows = {}
    for j, row in enumerate(cores_t["rows"]):
        try:
            cells = [row[0]] + [float(c) for c in row[1:]]
        except ValueError:
            _fail(errors, path,
                  f"'chip cores' rows[{j}] non-numeric cell")
            continue
        if cells[CHIP_CORE_COLUMNS.index("stall_cycles")] < 0:
            _fail(errors, path,
                  f"'chip cores' rows[{j}] negative stall_cycles")
        cycles = cells[CHIP_CORE_COLUMNS.index("cycles")]
        stall = cells[CHIP_CORE_COLUMNS.index("stall_cycles")]
        eff = cells[CHIP_CORE_COLUMNS.index("eff_cycles")]
        if eff != cycles + stall:
            _fail(errors, path,
                  f"'chip cores' rows[{j}] eff_cycles {eff:g} != "
                  f"cycles {cycles:g} + stall_cycles {stall:g}")
        core_rows.setdefault(row[0], []).append(cells)

    for j, row in enumerate(shards_t["rows"]):
        shard_id = row[0]
        if shard_id not in sweep_ids:
            _fail(errors, path,
                  f"'chip shards' rows[{j}] id '{shard_id}' missing "
                  f"from the 'sweep shards' table")
        try:
            cores = int(row[CHIP_SHARD_COLUMNS.index("cores")])
        except ValueError:
            _fail(errors, path,
                  f"'chip shards' rows[{j}] non-integer cores")
            continue
        if cores < 2:
            _fail(errors, path,
                  f"'chip shards' rows[{j}] cores={cores} < 2 — "
                  f"1-core shards must stay out of the chip tables")
        status = row[CHIP_SHARD_COLUMNS.index("status")]
        mine = core_rows.pop(shard_id, [])
        if status != "ok":
            if mine:
                _fail(errors, path,
                      f"failed chip shard '{shard_id}' has "
                      f"'chip cores' rows")
            continue
        if len(mine) != cores:
            _fail(errors, path,
                  f"chip shard '{shard_id}' has {len(mine)} "
                  f"'chip cores' rows, expected {cores}")
            continue
        instrs = float(row[CHIP_SHARD_COLUMNS.index("instrs")])
        chip_cycles = float(
            row[CHIP_SHARD_COLUMNS.index("chip_cycles")])
        power = float(row[CHIP_SHARD_COLUMNS.index("power_w")])
        i_instrs = CHIP_CORE_COLUMNS.index("instrs")
        i_eff = CHIP_CORE_COLUMNS.index("eff_cycles")
        i_power = CHIP_CORE_COLUMNS.index("power_w")
        if sum(c[i_instrs] for c in mine) != instrs:
            _fail(errors, path,
                  f"chip shard '{shard_id}' instrs {instrs:g} != sum "
                  f"of its per-core instrs")
        if max(c[i_eff] for c in mine) != chip_cycles:
            _fail(errors, path,
                  f"chip shard '{shard_id}' chip_cycles "
                  f"{chip_cycles:g} != max per-core eff_cycles — the "
                  f"chip finishes with its slowest core")
        power_sum = sum(c[i_power] for c in mine)
        if abs(power_sum - power) > 1e-3 * (cores + 1):
            _fail(errors, path,
                  f"chip shard '{shard_id}' power_w {power:g} != "
                  f"per-core sum {power_sum:g} beyond rounding "
                  f"tolerance")

    for shard_id in sorted(core_rows):
        _fail(errors, path,
              f"'chip cores' rows for '{shard_id}' with no matching "
              f"'chip shards' row")


FLEET_SCALARS = ["fleet.workers", "fleet.workers_dead",
                 "fleet.dispatched", "fleet.reassigned",
                 "fleet.skipped", "fleet.remote_cache_hits",
                 "fleet.remote_cache_puts", "fleet.local_shards",
                 "fleet.connect_failures", "fleet.protocol_errors"]


def validate_fleet(path, doc, errors):
    """Fleet provenance sidecar (p10fleet --fleet-stats): the default
    report checks — which include cache-provenance conservation —
    plus the fleet.* scalar set and its internal accounting."""
    before = len(errors)
    validate_report(path, doc, errors)
    if len(errors) != before:
        return

    scalars = doc["scalars"]
    for name in FLEET_SCALARS + ["sweep.shards", "sweep.cached",
                                 "sweep.simulated"]:
        value = scalars.get(name)
        if not isinstance(value, NUM) or isinstance(value, bool):
            _fail(errors, path, f"missing numeric scalar '{name}'")
        elif value < 0:
            _fail(errors, path, f"scalar '{name}' is negative")
    if len(errors) != before:
        return

    if scalars["fleet.workers_dead"] > scalars["fleet.workers"]:
        _fail(errors, path,
              "fleet.workers_dead exceeds fleet.workers")
    # Every shard was finished by a worker, run locally, or skipped —
    # and nothing was dispatched to a zero-worker fleet.
    if scalars["fleet.local_shards"] > scalars["sweep.shards"]:
        _fail(errors, path, "fleet.local_shards exceeds sweep.shards")
    if scalars["fleet.skipped"] > scalars["sweep.shards"]:
        _fail(errors, path, "fleet.skipped exceeds sweep.shards")
    if scalars["fleet.workers"] == 0 and scalars["fleet.dispatched"] > 0:
        _fail(errors, path,
              "fleet.dispatched > 0 with fleet.workers == 0")


def validate_trace(path, doc, errors):
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return _fail(errors, path, "no traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        return _fail(errors, path, "traceEvents empty")
    counters = 0
    thread_names = {}
    last_ts = {}
    counter_negative = False
    monotonic_bad = set()
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph not in ("M", "C", "X"):
            _fail(errors, path, f"traceEvents[{i}] unknown ph '{ph}'")
            continue
        if "name" not in e:
            _fail(errors, path, f"traceEvents[{i}] has no name")
        if ph == "M" and e.get("name") == "thread_name":
            args = e.get("args")
            if isinstance(args, dict):
                thread_names[e.get("tid")] = args.get("name", "")
        if ph == "C":
            counters += 1
            if not isinstance(e.get("ts"), NUM):
                _fail(errors, path, f"traceEvents[{i}] bad ts")
            args = e.get("args")
            if not isinstance(args, dict):
                _fail(errors, path, f"traceEvents[{i}] bad args")
            elif any(isinstance(v, NUM) and v < 0
                     for v in args.values()):
                counter_negative = True
        elif ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, NUM) or dur <= 0:
                _fail(errors, path, f"traceEvents[{i}] bad dur")
            ts = e.get("ts")
            if isinstance(ts, NUM):
                tid = e.get("tid")
                # Lanes are emitted begin-sorted, so within one tid the
                # slice timestamps must never step backwards.
                if ts < last_ts.get(tid, float("-inf")):
                    monotonic_bad.add(tid)
                last_ts[tid] = ts
    if counters == 0:
        _fail(errors, path, "trace has no counter events")

    # Distributed fleet traces name their root context in a
    # "trace:<id>" pseudo-thread; those traces additionally guarantee
    # hex-shaped ids, per-lane monotonic spans and non-negative
    # counters. Plain p10sim traces have no such thread and are exempt.
    trace_threads = [n for n in thread_names.values()
                     if isinstance(n, str) and n.startswith("trace:")]
    if trace_threads:
        for name in trace_threads:
            if not TRACE_THREAD_RE.match(name):
                _fail(errors, path,
                      f"trace thread '{name}' is not "
                      f"trace:<32 hex>-<16 hex>")
        for tid in sorted(monotonic_bad, key=str):
            _fail(errors, path,
                  f"slice timestamps not monotonic on lane "
                  f"'{thread_names.get(tid, tid)}'")
        if counter_negative:
            _fail(errors, path, "negative counter sample")


def validate_metrics(path, doc, errors):
    """Metrics-registry sidecar (--metrics-out): the default report
    checks plus non-negativity — every registry value (counter, gauge,
    histogram count/max/sum) is a tally that can never go below zero."""
    before = len(errors)
    validate_report(path, doc, errors)
    if len(errors) != before:
        return
    scalars = doc["scalars"]
    if not scalars:
        _fail(errors, path, "metrics sidecar has no scalars")
    for name, value in scalars.items():
        if not isinstance(value, NUM) or isinstance(value, bool):
            _fail(errors, path, f"metric '{name}' is not numeric")
        elif value < 0:
            _fail(errors, path, f"metric '{name}' is negative")


def main(argv):
    args = argv[1:]
    mode = "report"
    if args and args[0] in ("--trace", "--sweep", "--chip",
                            "--trace-workload", "--fleet",
                            "--metrics"):
        mode = args[0][2:]
        args = args[1:]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    validators = {
        "report": validate_report,
        "trace": validate_trace,
        "sweep": validate_sweep,
        "chip": validate_chip,
        "trace-workload": validate_trace_workload,
        "fleet": validate_fleet,
        "metrics": validate_metrics,
    }
    errors = []
    for path in args:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError) as exc:
            _fail(errors, path, f"unreadable: {exc}")
            continue
        validators[mode](path, doc, errors)

    if errors:
        for e in errors:
            print(f"validate_report: {e}", file=sys.stderr)
        print(f"validate_report: {len(errors)} problem(s) in "
              f"{len(args)} file(s)", file=sys.stderr)
        return 1
    print(f"validate_report: {len(args)} {mode} file(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
