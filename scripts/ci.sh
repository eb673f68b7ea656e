#!/usr/bin/env bash
# Local CI: build and test the tree twice — a plain Release build and
# an ASan+UBSan build — mirroring what a hosted pipeline would run.
# Any test failure or sanitizer report fails the script.
set -euo pipefail

cd "$(dirname "$0")/.."

# The golden tests rewrite tests/golden when P10EE_REGEN_GOLDEN is set
# (even to an empty value) and then pass against their own output, so
# a run with it set could not fail on a golden.
if [ -n "${P10EE_REGEN_GOLDEN+set}" ]; then
    echo "ci.sh: unset P10EE_REGEN_GOLDEN; goldens are regenerated" \
        "by hand, never by CI" >&2
    exit 1
fi

run_flavour() {
    local name="$1"
    local tier="$2"
    shift 2
    echo "=== ${name}: configure ==="
    cmake -B "build-${name}" -S . "$@"
    echo "=== ${name}: build ==="
    cmake --build "build-${name}" -j "$(nproc)"
    if [ "${tier}" = "tier1" ]; then
        # Fast tier only (see tests/CMakeLists.txt labels): sanitizer
        # flavours re-check correctness, not the slow golden/property
        # sweeps, which run once in the release flavour below.
        echo "=== ${name}: ctest -L tier1 ==="
        ctest --test-dir "build-${name}" --output-on-failure \
            -j "$(nproc)" -L tier1
    else
        echo "=== ${name}: ctest (full) ==="
        ctest --test-dir "build-${name}" --output-on-failure \
            -j "$(nproc)"
    fi
}

# Daemon smoke: start p10d on an ephemeral port, submit the shared
# sweep spec through scripts/p10_client.py, schema-validate the report
# the daemon streams back, byte-compare it against the same flavour's
# offline p10sweep_cli output (never across flavours — FP contraction
# differs), query live stats, then SIGTERM and require a graceful
# drain with exit status 0.
daemon_smoke() {
    local build="$1"
    local tag="$2"
    local dir="${smoke_dir}/daemon-${tag}"
    rm -rf "${dir}"
    mkdir -p "${dir}"
    echo "=== daemon smoke (${tag}): p10d round-trip + graceful drain ==="
    "${build}/examples/p10d" --port 0 --executors 2 --jobs 2 \
        --cache-dir "${dir}/cache" \
        > "${dir}/p10d.out" 2> "${dir}/p10d.err" &
    local pid=$!
    local port=""
    for _ in $(seq 1 200); do
        port="$(sed -n \
            's/^p10d: listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' \
            "${dir}/p10d.out")"
        [ -n "${port}" ] && break
        kill -0 "${pid}" 2>/dev/null || break
        sleep 0.1
    done
    if [ -z "${port}" ]; then
        echo "daemon smoke (${tag}): p10d never announced its port" >&2
        cat "${dir}/p10d.err" >&2 || true
        kill "${pid}" 2>/dev/null || true
        return 1
    fi
    "${build}/examples/p10sweep_cli" \
        --spec "${smoke_dir}/sweep_smoke.json" --jobs 2 \
        --out "${dir}/CLI_sweep.json" >/dev/null
    python3 scripts/p10_client.py --port "${port}" --id ci-cold \
        --spec "${smoke_dir}/sweep_smoke.json" \
        --out "${dir}/DAEMON_cold.json" 2>/dev/null
    # Same cache dir, so the repeat must replay entirely from cache and
    # still produce the same bytes.
    python3 scripts/p10_client.py --port "${port}" --id ci-warm \
        --spec "${smoke_dir}/sweep_smoke.json" \
        --out "${dir}/DAEMON_warm.json" 2> "${dir}/warm.log"
    grep -q "done (cached 16, simulated 0)" "${dir}/warm.log"
    python3 scripts/validate_report.py --sweep \
        "${dir}/DAEMON_cold.json" "${dir}/DAEMON_warm.json"
    cmp "${dir}/CLI_sweep.json" "${dir}/DAEMON_cold.json"
    cmp "${dir}/CLI_sweep.json" "${dir}/DAEMON_warm.json"
    python3 scripts/p10_client.py --port "${port}" --stats \
        > "${dir}/stats.json"
    python3 - "${dir}/stats.json" <<'EOF'
import json, sys
stats = json.load(open(sys.argv[1]))
assert stats["event"] == "stats", stats
assert stats["completed"] == 2, stats
assert stats["simulated_shards"] == 16, stats
assert stats["cached_shards"] == 16, stats
print("daemon stats: 2 completed, 16 simulated + 16 cached shards")
EOF
    kill -TERM "${pid}"
    local status=0
    wait "${pid}" || status=$?
    if [ "${status}" -ne 0 ]; then
        echo "daemon smoke (${tag}): p10d exited ${status} on SIGTERM" >&2
        return 1
    fi
    echo "daemon smoke (${tag}): byte-identical reports, clean drain"
}

# Fleet smoke: first a fault-free 2-worker run, which must reproduce
# the offline p10sweep_cli bytes with no requeue, protocol error or
# dead worker in its --fleet-stats sidecar. Then the same fleet with
# one worker SIGKILLed mid-sweep via the built-in chaos harness: a
# zero exit with a merged report byte-identical to the same flavour's
# offline p10sweep_cli output. Then the same chaos run with the flight
# recorder on (--trace-out/--metrics-out): the merged bytes must not
# move, the Perfetto sidecar and the metrics sidecar must validate,
# and the metrics counters must agree exactly with the fleet-stats
# sidecar from the same run. Then the degradation ladder's far end:
# zero workers must complete in-process, exit 0, same bytes again.
fleet_smoke() {
    local build="$1"
    local tag="$2"
    local dir="${smoke_dir}/fleet-${tag}"
    rm -rf "${dir}"
    mkdir -p "${dir}"
    echo "=== fleet smoke (${tag}): clean + chaos kill + degraded byte identity ==="
    "${build}/examples/p10sweep_cli" \
        --spec "${smoke_dir}/sweep_smoke.json" --jobs 2 \
        --out "${dir}/CLI_sweep.json" >/dev/null
    "${build}/examples/p10fleet" \
        --spec "${smoke_dir}/sweep_smoke.json" --spawn 2 \
        --out "${dir}/FLEET_clean.json" \
        --fleet-stats "${dir}/FLEET_clean_stats.json" \
        > /dev/null 2> "${dir}/clean.err"
    cmp "${dir}/CLI_sweep.json" "${dir}/FLEET_clean.json"
    python3 - "${dir}/FLEET_clean_stats.json" <<'EOF'
import json, sys
stats = json.load(open(sys.argv[1]))["scalars"]
# No chaos, so nothing may look like a fault: a false heartbeat silence
# or lease expiry would show up as a requeue.
for key in ("fleet.reassigned", "fleet.protocol_errors",
            "fleet.workers_dead"):
    assert stats[key] == 0, (key, stats)
print("fleet clean run: no requeues, protocol errors or dead workers")
EOF
    "${build}/examples/p10fleet" \
        --spec "${smoke_dir}/sweep_smoke.json" --spawn 2 \
        --chaos-kill "0@150" --heartbeat-ms 50 \
        --out "${dir}/FLEET_chaos.json" \
        --fleet-stats "${dir}/FLEET_stats.json" \
        > "${dir}/fleet.out" 2> "${dir}/fleet.err"
    cmp "${dir}/CLI_sweep.json" "${dir}/FLEET_chaos.json"
    python3 scripts/validate_report.py --fleet "${dir}/FLEET_stats.json"
    "${build}/examples/p10fleet" \
        --spec "${smoke_dir}/sweep_smoke.json" --spawn 2 \
        --chaos-kill "0@150" --heartbeat-ms 50 \
        --out "${dir}/FLEET_traced.json" \
        --fleet-stats "${dir}/FLEET_traced_stats.json" \
        --trace-out "${dir}/FLEET_trace.json" \
        --metrics-out "${dir}/FLEET_metrics.json" \
        > /dev/null 2> "${dir}/traced.err"
    # Tracing is a pure observer: same bytes as the untraced CLI run.
    cmp "${dir}/CLI_sweep.json" "${dir}/FLEET_traced.json"
    python3 scripts/validate_report.py --trace "${dir}/FLEET_trace.json"
    python3 scripts/validate_report.py --metrics "${dir}/FLEET_metrics.json"
    python3 - "${dir}/FLEET_metrics.json" \
        "${dir}/FLEET_traced_stats.json" <<'EOF'
import json, sys
metrics = json.load(open(sys.argv[1]))["scalars"]
stats = json.load(open(sys.argv[2]))["scalars"]
# The registry counters and the runner's own stats are two independent
# recorders of the same run — they must agree exactly (absent metric
# keys mean the counter never fired, i.e. zero).
for metric, stat in [("fleet.requeues", "fleet.reassigned"),
                     ("fleet.skips", "fleet.skipped"),
                     ("fleet.retirements", "fleet.workers_dead")]:
    assert metrics.get(metric, 0) == stats[stat], (metric, metrics, stats)
print("fleet metrics: counters agree with fleet stats "
      f"(requeues {metrics.get('fleet.requeues', 0)}, "
      f"lease expiries {metrics.get('fleet.lease_expiries', 0)})")
EOF
    "${build}/examples/p10fleet" \
        --spec "${smoke_dir}/sweep_smoke.json" --local-jobs 2 \
        --out "${dir}/FLEET_degraded.json" \
        > /dev/null 2> "${dir}/degraded.err"
    grep -q "no workers configured" "${dir}/degraded.err"
    cmp "${dir}/CLI_sweep.json" "${dir}/FLEET_degraded.json"
    echo "fleet smoke (${tag}): clean, chaos and degraded runs byte-identical"
}

# Chip smoke: the multi-core chip path end to end on one flavour's
# binaries. An explicit "cores": [1] axis must leave the merged report
# byte-identical to the same spec without the axis (the chip(1) ==
# bare-core identity contract keeps 1-core sweeps on the exact
# historical bytes); a 4-core chip sweep must be byte-identical at any
# --jobs and cold vs warm shard cache, and must pass the --chip rollup
# validation; and the same chip spec through a spawned 2-worker p10d
# fleet must reproduce the CLI bytes. Own spec files throughout — the
# daemon smoke's cache assertions count shards on the shared spec.
chip_smoke() {
    local build="$1"
    local tag="$2"
    local dir="${smoke_dir}/chip-${tag}"
    rm -rf "${dir}"
    mkdir -p "${dir}"
    echo "=== chip smoke (${tag}): 1-core identity + 4-core byte stability ==="
    cat > "${dir}/core_spec.json" <<'EOF'
{
  "configs": ["power10"],
  "workloads": ["xz", "mcf"],
  "smt": [1, 2],
  "seeds": 1,
  "instrs": 3000,
  "warmup": 500,
  "seed": 7
}
EOF
    sed 's/"smt": \[1, 2\],/"smt": [1, 2],\n  "cores": [1],/' \
        "${dir}/core_spec.json" > "${dir}/core1_spec.json"
    sed 's/"smt": \[1, 2\],/"smt": [1, 2],\n  "cores": [4],/' \
        "${dir}/core_spec.json" > "${dir}/chip_spec.json"
    "${build}/examples/p10sweep_cli" --spec "${dir}/core_spec.json" \
        --jobs 2 --out "${dir}/CORE.json" >/dev/null
    "${build}/examples/p10sweep_cli" --spec "${dir}/core1_spec.json" \
        --jobs 2 --out "${dir}/CORE_c1.json" >/dev/null
    cmp "${dir}/CORE.json" "${dir}/CORE_c1.json"
    "${build}/examples/p10sweep_cli" --spec "${dir}/chip_spec.json" \
        --jobs 1 --out "${dir}/CHIP_j1.json" >/dev/null
    rm -rf "${dir}/cache"
    "${build}/examples/p10sweep_cli" --spec "${dir}/chip_spec.json" \
        --jobs 4 --cache-dir "${dir}/cache" \
        --out "${dir}/CHIP_cold.json" >/dev/null
    "${build}/examples/p10sweep_cli" --spec "${dir}/chip_spec.json" \
        --jobs 4 --cache-dir "${dir}/cache" \
        --out "${dir}/CHIP_warm.json" >/dev/null
    cmp "${dir}/CHIP_j1.json" "${dir}/CHIP_cold.json"
    cmp "${dir}/CHIP_cold.json" "${dir}/CHIP_warm.json"
    python3 scripts/validate_report.py --chip "${dir}/CHIP_cold.json"
    "${build}/examples/p10fleet" --spec "${dir}/chip_spec.json" \
        --spawn 2 --out "${dir}/CHIP_fleet.json" \
        > /dev/null 2> "${dir}/fleet.err"
    cmp "${dir}/CHIP_j1.json" "${dir}/CHIP_fleet.json"
    echo "chip smoke (${tag}): 1-core identical to bare core, 4-core stable"
}

# Trace smoke: the full ingestion loop on one flavour's binaries.
# Record a synthetic workload into a p10trace/1 container, sweep it as
# a trace:<path> workload (byte-identical at any --jobs, cold vs warm
# cache, and through a 2-worker fleet), schema-validate the trace
# provenance in the merged report, round-trip a warmup checkpoint over
# the replay, then re-extract a snippet and sweep that as its own
# trace workload. Finally cross-check the wire format against the
# stdlib-only Python tooling: a container hand-built by p10_trace.py
# must verify and replay in C++.
# Run a command that must fail as a usage error: exit status 2, not
# success and not a crash (an uncaught exception aborts with 134).
expect_exit_2() {
    local what="$1"
    shift
    local status=0
    "$@" >/dev/null 2>&1 || status=$?
    if [ "${status}" -ne 2 ]; then
        echo "${what}: exited ${status}, expected 2" >&2
        return 1
    fi
}

trace_smoke() {
    local build="$1"
    local tag="$2"
    local dir="${smoke_dir}/trace-${tag}"
    rm -rf "${dir}"
    mkdir -p "${dir}"
    echo "=== trace smoke (${tag}): record/replay/extract round trip ==="
    "${build}/examples/p10trace_cli" record --workload xz \
        --instrs 20000 --out "${dir}/xz.p10trace" 2>/dev/null
    "${build}/examples/p10trace_cli" info --in "${dir}/xz.p10trace" \
        >/dev/null
    "${build}/examples/p10trace_cli" verify --in "${dir}/xz.p10trace" \
        >/dev/null
    cat > "${dir}/trace_sweep.json" <<EOF
{
  "configs": ["power10"],
  "workloads": ["trace:${dir}/xz.p10trace"],
  "smt": [1, 2],
  "seeds": 2,
  "instrs": 3000,
  "warmup": 500,
  "seed": 7
}
EOF
    "${build}/examples/p10sweep_cli" --spec "${dir}/trace_sweep.json" \
        --jobs 1 --out "${dir}/TRACE_j1.json" >/dev/null
    "${build}/examples/p10sweep_cli" --spec "${dir}/trace_sweep.json" \
        --jobs 4 --out "${dir}/TRACE_j4.json" >/dev/null
    cmp "${dir}/TRACE_j1.json" "${dir}/TRACE_j4.json"
    rm -rf "${dir}/cache"
    "${build}/examples/p10sweep_cli" --spec "${dir}/trace_sweep.json" \
        --jobs 4 --cache-dir "${dir}/cache" \
        --out "${dir}/TRACE_cold.json" >/dev/null
    "${build}/examples/p10sweep_cli" --spec "${dir}/trace_sweep.json" \
        --jobs 4 --cache-dir "${dir}/cache" \
        --out "${dir}/TRACE_warm.json" >/dev/null
    cmp "${dir}/TRACE_cold.json" "${dir}/TRACE_warm.json"
    cmp "${dir}/TRACE_j1.json" "${dir}/TRACE_warm.json"
    python3 scripts/validate_report.py --trace-workload \
        "${dir}/TRACE_j1.json"
    "${build}/examples/p10fleet" --spec "${dir}/trace_sweep.json" \
        --spawn 2 --out "${dir}/TRACE_fleet.json" \
        > /dev/null 2> "${dir}/fleet.err"
    cmp "${dir}/TRACE_j1.json" "${dir}/TRACE_fleet.json"
    # Checkpoint the replay after warmup; the restored measured window
    # must be bit-identical to the saving run's.
    "${build}/examples/p10sim_cli" \
        --workload "trace:${dir}/xz.p10trace" --instrs 3000 \
        --warmup 2000 --csv --ckpt-save "${dir}/warm.ckpt" \
        > "${dir}/CKPT_save.csv" 2>/dev/null
    "${build}/examples/p10sim_cli" \
        --workload "trace:${dir}/xz.p10trace" --instrs 3000 \
        --warmup 2000 --csv --ckpt-load "${dir}/warm.ckpt" \
        > "${dir}/CKPT_load.csv" 2>/dev/null
    cmp "${dir}/CKPT_save.csv" "${dir}/CKPT_load.csv"
    # A directory is not a container: the trace and checkpoint readers
    # must reject one as a usage error, never abort.
    expect_exit_2 "trace smoke (${tag}): verify of a directory" \
        "${build}/examples/p10trace_cli" verify --in "${dir}"
    expect_exit_2 "trace smoke (${tag}): --ckpt-load of a directory" \
        "${build}/examples/p10sim_cli" \
        --workload "trace:${dir}/xz.p10trace" --instrs 3000 \
        --warmup 2000 --csv --ckpt-load "${dir}"
    # Snippet re-extraction: mine the hot loop, then sweep the snippet
    # as its own trace workload.
    "${build}/examples/p10trace_cli" extract --in "${dir}/xz.p10trace" \
        --out-dir "${dir}/snips" --report "${dir}/EXTRACT.json" \
        >/dev/null 2>&1
    python3 scripts/validate_report.py "${dir}/EXTRACT.json"
    local snippet
    snippet="$(ls "${dir}/snips/"*.p10trace | head -n 1)"
    "${build}/examples/p10trace_cli" verify --in "${snippet}" >/dev/null
    cat > "${dir}/snip_sweep.json" <<EOF
{
  "configs": ["power10"],
  "workloads": ["trace:${snippet}"],
  "smt": [1],
  "seeds": 1,
  "instrs": 2000,
  "warmup": 500,
  "seed": 7
}
EOF
    "${build}/examples/p10sweep_cli" --spec "${dir}/snip_sweep.json" \
        --jobs 2 --out "${dir}/SNIP_sweep.json" >/dev/null
    python3 scripts/validate_report.py --trace-workload \
        "${dir}/SNIP_sweep.json"
    # Cross-language wire-format pin: a container hand-built by the
    # stdlib-only Python tool must verify and replay in C++.
    python3 scripts/p10_trace.py synth --out "${dir}/py.p10trace" \
        --iters 40 >/dev/null
    "${build}/examples/p10trace_cli" verify --in "${dir}/py.p10trace" \
        >/dev/null
    python3 scripts/p10_trace.py info "${dir}/xz.p10trace" \
        "${dir}/py.p10trace" >/dev/null
    "${build}/examples/p10sim_cli" \
        --workload "trace:${dir}/py.p10trace" --instrs 2000 \
        --warmup 500 --csv >/dev/null 2>&1
    echo "trace smoke (${tag}): record/sweep/ckpt/extract byte-stable"
}

run_flavour release full -DCMAKE_BUILD_TYPE=Release

# No test of the full run may have rewritten a committed golden.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    echo "=== release: tests/golden unchanged ==="
    git diff --exit-code -- tests/golden
fi

# Bench smoke: every bench binary must run on a tiny budget and emit a
# schema-valid machine-readable report; the CLI must emit a loadable
# Perfetto trace. Validation failures fail CI — schema drift breaks
# here instead of in downstream consumers.
echo "=== bench smoke: JSON reports + trace validation ==="
smoke_dir="build-release/bench-smoke"
mkdir -p "${smoke_dir}"
for bench in build-release/bench/bench_*; do
    { [ -f "${bench}" ] && [ -x "${bench}" ]; } || continue
    name="$(basename "${bench}")"
    json="${smoke_dir}/BENCH_${name#bench_}.json"
    case "${name}" in
    bench_micro_kernels)
        args=(--out "${json}" --benchmark_min_time=0.01)
        ;;
    bench_fault_campaign)
        # --instrs scales the injection count for this bench.
        args=(--out "${json}" --instrs 30 --warmup 500)
        ;;
    *)
        args=(--out "${json}" --instrs 3000 --warmup 500)
        ;;
    esac
    echo "--- smoke: ${name}"
    "${bench}" "${args[@]}" >/dev/null
done
echo "--- smoke: p10sim_cli --trace-out/--out"
build-release/examples/p10sim_cli --workload perlbench \
    --instrs 20000 --warmup 5000 --sample-interval 512 \
    --trace-out "${smoke_dir}/trace.json" \
    --out "${smoke_dir}/CLI_p10sim.json" >/dev/null
python3 scripts/validate_report.py \
    "${smoke_dir}"/BENCH_*.json "${smoke_dir}"/CLI_*.json
python3 scripts/validate_report.py --trace "${smoke_dir}/trace.json"

# Sweep smoke: the merged report must be byte-identical at any --jobs
# value (same build flavour — never compare across flavours, FP
# contraction differs) and pass the sweep-specific schema checks.
echo "=== sweep smoke: --jobs determinism + merged-report validation ==="
cat > "${smoke_dir}/sweep_smoke.json" <<'EOF'
{
  "configs": ["power9", "power10"],
  "workloads": ["perlbench", "mcf"],
  "smt": [1, 2],
  "seeds": 2,
  "instrs": 3000,
  "warmup": 500,
  "seed": 7
}
EOF
build-release/examples/p10sweep_cli --spec "${smoke_dir}/sweep_smoke.json" \
    --jobs 1 --out "${smoke_dir}/SWEEP_j1.json" >/dev/null
build-release/examples/p10sweep_cli --spec "${smoke_dir}/sweep_smoke.json" \
    --jobs 8 --out "${smoke_dir}/SWEEP_j8.json" >/dev/null
cmp "${smoke_dir}/SWEEP_j1.json" "${smoke_dir}/SWEEP_j8.json"
python3 scripts/validate_report.py --sweep "${smoke_dir}/SWEEP_j1.json"

# Cache smoke: a cold run populates the shard cache, a warm re-run must
# simulate zero shards, and both merged reports must be byte-identical
# to each other and to the cache-less runs above. The --cache-stats
# sidecars carry the provenance split, checked for conservation by the
# validator.
echo "=== cache smoke: warm-vs-cold byte identity ==="
rm -rf "${smoke_dir}/shard-cache"
build-release/examples/p10sweep_cli --spec "${smoke_dir}/sweep_smoke.json" \
    --jobs 8 --out "${smoke_dir}/SWEEP_cold.json" \
    --cache-dir "${smoke_dir}/shard-cache" \
    --cache-stats "${smoke_dir}/CACHE_cold.json" >/dev/null
build-release/examples/p10sweep_cli --spec "${smoke_dir}/sweep_smoke.json" \
    --jobs 8 --out "${smoke_dir}/SWEEP_warm.json" \
    --cache-dir "${smoke_dir}/shard-cache" \
    --cache-stats "${smoke_dir}/CACHE_warm.json" >/dev/null
cmp "${smoke_dir}/SWEEP_cold.json" "${smoke_dir}/SWEEP_warm.json"
cmp "${smoke_dir}/SWEEP_j1.json" "${smoke_dir}/SWEEP_warm.json"
python3 scripts/validate_report.py \
    "${smoke_dir}/CACHE_cold.json" "${smoke_dir}/CACHE_warm.json"
python3 - "${smoke_dir}/CACHE_cold.json" "${smoke_dir}/CACHE_warm.json" \
    <<'EOF'
import json, sys
cold = json.load(open(sys.argv[1]))["scalars"]
warm = json.load(open(sys.argv[2]))["scalars"]
assert cold["sweep.cached"] == 0, cold
assert cold["sweep.simulated"] == cold["sweep.shards"], cold
assert warm["sweep.simulated"] == 0, warm
assert warm["sweep.cached"] == warm["sweep.shards"], warm
print("cache smoke: cold simulated all, warm simulated none")
EOF

daemon_smoke build-release release
fleet_smoke build-release release
trace_smoke build-release release
chip_smoke build-release release

# Bench baseline diff: the committed baseline is the bench_merge of
# the fleet-throughput and core-MIPS reports, so CI merges the same
# two smoke artifacts and tolerance-diffs the union — catches a bench
# that silently stops measuring, emits zeros, or regresses by an
# order of magnitude, while tolerating host-to-host variance.
echo "=== bench baseline diff: fleet + core MIPS vs committed baseline ==="
python3 scripts/bench_merge.py --out "${smoke_dir}/BENCH_merged.json" \
    "${smoke_dir}/BENCH_fleet.json" "${smoke_dir}/BENCH_core_mips.json"
python3 scripts/bench_diff.py BENCH_2026-08-07.json \
    "${smoke_dir}/BENCH_merged.json"

# halt_on_error makes any UBSan finding fail ctest instead of printing
# and continuing; detect_leaks stays on by default under ASan.
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
run_flavour asan-ubsan tier1 -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DP10EE_SANITIZE=address,undefined

daemon_smoke build-asan-ubsan asan-ubsan
fleet_smoke build-asan-ubsan asan-ubsan
trace_smoke build-asan-ubsan asan-ubsan
chip_smoke build-asan-ubsan asan-ubsan

# The hostile-input surfaces (the sealed-file layout, the
# checkpoint/cache/trace deserializers behind it, spec parsing) must
# also hold under the sanitizers, and their fuzz tests are
# tier1-labelled — but be explicit here so a label change
# cannot silently drop them from sanitizer coverage.
echo "=== asan-ubsan: hostile-input fuzz suites ==="
build-asan-ubsan/tests/test_ckpt \
    --gtest_filter='*Fuzz*:*Corrupt*:*Truncat*:CkptHostile.ForgedCycleBeyondRangeRejected' \
    >/dev/null
build-asan-ubsan/tests/test_core_structures \
    --gtest_filter='Rings.*' >/dev/null
build-asan-ubsan/tests/test_sweep_cache \
    --gtest_filter='*Fuzz*:*Corrupt*:*Stale*' >/dev/null
build-asan-ubsan/tests/test_trace \
    --gtest_filter='TraceHostile.*' >/dev/null
build-asan-ubsan/tests/test_chip \
    --gtest_filter='ChipCkptHostile.*' >/dev/null
build-asan-ubsan/tests/test_common \
    --gtest_filter='SealedFile.*' >/dev/null

# TSan flavour: only the parallel paths (thread pool, sweep runner,
# parallel fault campaign, the shared-object caches) need race
# coverage, so build just those targets instead of the whole tree.
# gtest_discover_tests does not cooperate with partial builds, so the
# test binary runs directly.
echo "=== tsan: configure + build parallel targets ==="
export TSAN_OPTIONS="halt_on_error=1"
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DP10EE_SANITIZE=thread
cmake --build build-tsan -j "$(nproc)" \
    --target test_common test_workloads test_sweep test_service \
    test_fabric test_obs test_chip bench_fault_campaign p10sweep_cli \
    p10d p10fleet p10trace_cli p10sim_cli
echo "=== tsan: test_common (shared-object cache) ==="
build-tsan/tests/test_common
echo "=== tsan: test_workloads (walkers sharing one program) ==="
build-tsan/tests/test_workloads
echo "=== tsan: test_sweep ==="
build-tsan/tests/test_sweep
echo "=== tsan: test_service (daemon thread model) ==="
build-tsan/tests/test_service
echo "=== tsan: test_fabric (coordinator/worker thread model) ==="
build-tsan/tests/test_fabric
echo "=== tsan: test_obs (metrics registry + span recorder) ==="
build-tsan/tests/test_obs
echo "=== tsan: test_chip (epoch barriers + per-core recorders) ==="
build-tsan/tests/test_chip
echo "=== tsan: parallel campaign + sweep smoke ==="
build-tsan/bench/bench_fault_campaign --instrs 20 --warmup 500 \
    --jobs 4 >/dev/null
build-tsan/examples/p10sweep_cli --spec "${smoke_dir}/sweep_smoke.json" \
    --jobs 4 >/dev/null

daemon_smoke build-tsan tsan
fleet_smoke build-tsan tsan
trace_smoke build-tsan tsan
chip_smoke build-tsan tsan

echo "=== CI green: release + asan-ubsan + tsan ==="
