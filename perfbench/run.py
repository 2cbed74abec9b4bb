#!/usr/bin/env python3
"""Run one benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload warm_sweep --seed 1 --seconds 10 --trace 0

Builds the benchmark driver and the serve daemon from this checkout's
sources into .bench_build/ (configure once, then an incremental build),
runs the workload, and relays the driver's output; the last stdout line
is the result JSON.  Exits non-zero without a result line when the
build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("warm_sweep", "cold_prepare", "serve_mix")
RUN_TIMEOUT_S = 170


def build():
    """Configure (first time) and build; the log is shown on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(os.cpu_count() or 1, 8))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise subprocess.CalledProcessError(proc.returncode, step)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    out_dir = os.path.join(BUILD, "runs")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir,
           "--serve-bin", os.path.join(BUILD, "sparsepipe_serve")]
    # Own process group, so a timeout also stops the serve daemon the
    # driver spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: driver exited {proc.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
