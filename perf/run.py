#!/usr/bin/env python3
"""Build the benchmark driver, then run one workload for one seed.

    python3 perf/run.py --workload core_long --seed 1 --seconds 10 --trace 0

The driver and the p10d worker it spawns are compiled from ../src and
../examples/p10d.cpp into perf/build-perf/ (configured on the first
run, an incremental no-op afterwards). The driver prints every metric
as `name value unit`, writes a results file (default:
perf/build-perf/results/<workload>-seed<N>-trace<T>.json) and ends its
output with one JSON line. The exit status is the driver's: non-zero
when an output check fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
BUILD = PERF / "build-perf"
WORKLOADS = ("core_long", "chip_trace", "storm_cold", "storm_warm", "fleet")
# The driver must finish well inside the 180 s a run is allowed.
DRIVER_TIMEOUT_S = 170


def build():
    for needed in (ROOT / "src" / "CMakeLists.txt",
                   ROOT / "examples" / "p10d.cpp"):
        if not needed.is_file():
            sys.exit(f"perf/run.py: {needed} is missing; the benchmark "
                     "builds the simulator from the checkout around perf/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(PERF), "-B", str(BUILD),
                      *generator, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "p10perf",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perf/run.py: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="results file (default under "
                    "perf/build-perf/results/)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build()
    out = Path(args.out).resolve() if args.out else (
        BUILD / "results" /
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    # Relative to the checkout root (the driver's working directory):
    # trace paths end up in shard keys, so they must not depend on
    # where the checkout lives.
    work = (BUILD / "work" / args.workload).relative_to(ROOT)
    cmd = [str(BUILD / "p10perf"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work),
           "--out", str(out)]
    # Own process group, so a hung run takes its p10d workers with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        rc = proc.wait(timeout=DRIVER_TIMEOUT_S)
    except BaseException as e:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        if isinstance(e, subprocess.TimeoutExpired):
            sys.exit(f"perf/run.py: driver exceeded {DRIVER_TIMEOUT_S} s")
        raise
    sys.exit(rc)


if __name__ == "__main__":
    main()
