#!/usr/bin/env python3
"""Steadiness report for sets of benchmark runs.

Collect a set (one untraced run per seed on every workload of
BENCHMARK.json, result lines saved as JSON files).  Each run is
bracketed by perfbench_hostprobe, a fixed measure of the host's own
speed, whose times are saved with the result:

    python3 perfbench/steadiness.py run --out SET_DIR --seeds 1-10

Report one set, or compare two sets of the same code:

    python3 perfbench/steadiness.py report SET_A [SET_B]

For every workload x end-to-end metric the report prints the median,
the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median against the metric's bound from BENCHMARK.json.
A spread above the bound is MISS (setup_s is exempt, as in the
acceptance rule), above a third of it WARN.  With two sets it also
prints how much worse the second median is than the first and flags
any metric worse by more than its bound.  It also checks every run
was correct with 0 failed ops, and that sim_cycles repeats exactly
for a seed in both sets.  Next to each workload it prints the host
probe's medians, the correlation of ops_per_s with the host's speed
and, with two sets, how much slower the host was in the second set:
a metric that drifts with the host is no evidence of a code change.
Exit status 1 when anything is flagged MISS.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build step)

PROBE = os.path.join(run.BUILD, "perfbench_hostprobe")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def probe():
    """[chase_ms, sort_ms] from one run of the host probe."""
    out = subprocess.run([PROBE], stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return [float(v) for v in out.split()]


def cmd_run(args):
    bench = load_benchmark()
    run.build()
    os.makedirs(args.out, exist_ok=True)
    for workload in [w["name"] for w in bench["workloads"]]:
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "0"]
            before = probe()
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            wall = time.monotonic() - start
            after = probe()
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            result["wall_s"] = wall
            result["probe"] = [before, after]
            path = os.path.join(
                args.out, f"{workload}-seed{seed}.json")
            with open(path, "w") as f:
                json.dump(result, f)
            print(f"{workload} seed {seed}: {wall:.1f} s, "
                  f"correct={result['correct']} failed={result['failed']}",
                  flush=True)
    return 0


def load_set(directory):
    """{workload: {seed: result}} for the runs in a set."""
    runs = {}
    for path in glob.glob(os.path.join(directory, "*-seed*.json")):
        name = os.path.basename(path)[:-len(".json")]
        workload, _, seed = name.partition("-seed")
        with open(path) as f:
            runs.setdefault(workload, {})[int(seed)] = json.load(f)
    return runs


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def host(results):
    """Per-run host probe times (before/after mean): chase, sort."""
    if not all("probe" in r for r in results.values()):
        return None
    return [[(r["probe"][0][k] + r["probe"][1][k]) / 2
             for r in results.values()] for k in (0, 1)]


def cmd_report(args):
    bench = load_benchmark()
    metrics = bench["end_to_end"]
    sets = [load_set(d) for d in args.sets]
    flagged = False
    for workload in [w["name"] for w in bench["workloads"]]:
        for index, runs in enumerate(sets):
            results = runs.get(workload, {})
            if len(results) < 2:
                print(f"{workload}: set {index + 1} has {len(results)} runs")
                continue
            bad = [s for s, r in results.items()
                   if not r["correct"] or r["failed"]]
            print(f"\n{workload} (set {index + 1}, {len(results)} runs, "
                  f"attempted {sum(r['attempted'] for r in results.values())}"
                  f", failed {sum(r['failed'] for r in results.values())})")
            if bad:
                print(f"  MISS incorrect or failed ops on seeds {bad}")
                flagged = True
            print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}"
                  f"{'spread':>9}{'bound':>7}")
            for m in metrics:
                values = [r["metrics"][m["name"]]["value"]
                          for r in results.values()]
                med, q1, q3, spread = summarize(values)
                status = ""
                if m["name"] != "setup_s" and spread > m["bound"]:
                    status, flagged = "MISS", True
                elif spread > m["bound"] / 3:
                    status = "WARN"
                print(f"  {m['name']:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{spread:>9.4f}{m['bound']:>7.3f} {status}")
            probes = host(results)
            if probes:
                chase, sort = probes
                ops = [r["metrics"]["ops_per_s"]["value"]
                       for r in results.values()]
                r_chase = statistics.correlation(ops, [1 / c for c in chase])
                print(f"  host probe: chase {statistics.median(chase):.0f} ms"
                      f" (spread {summarize(chase)[3]:.2f}), sort "
                      f"{statistics.median(sort):.0f} ms (spread "
                      f"{summarize(sort)[3]:.2f}); r(ops_per_s, host speed)"
                      f" = {r_chase:.2f}")
        if len(sets) == 2 and workload in sets[0] and workload in sets[1]:
            a, b = sets[0][workload], sets[1][workload]
            print(f"  second set vs first (worse-by, bound):")
            for m in metrics:
                ma = statistics.median(
                    r["metrics"][m["name"]]["value"] for r in a.values())
                mb = statistics.median(
                    r["metrics"][m["name"]]["value"] for r in b.values())
                worse = (mb - ma) / ma if m["better"] == "lower" \
                    else (ma - mb) / ma
                status = ""
                if worse > m["bound"]:
                    status, flagged = "MISS", True
                print(f"    {m['name']:<14}{worse:>+9.4f}{m['bound']:>7.3f}"
                      f" {status}")
            host_a, host_b = host(a), host(b)
            if host_a and host_b:
                slower = [statistics.median(y) / statistics.median(x) - 1
                          for x, y in zip(host_a, host_b)]
                print(f"    host slower by {slower[0]:+.4f} (chase), "
                      f"{slower[1]:+.4f} (sort)")
            for seed in sorted(set(a) & set(b)):
                ca = a[seed]["metrics"]["sim_cycles"]["value"]
                cb = b[seed]["metrics"]["sim_cycles"]["value"]
                if ca != cb:
                    print(f"    MISS sim_cycles differ for seed {seed}: "
                          f"{ca} vs {cb}")
                    flagged = True
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run_cmd = sub.add_parser("run", help="collect one set of runs")
    run_cmd.add_argument("--out", required=True)
    run_cmd.add_argument("--seeds", default="1-10")
    report_cmd = sub.add_parser("report", help="summarize one or two sets")
    report_cmd.add_argument("sets", nargs="+")
    args = parser.parse_args()
    if args.cmd == "report" and len(args.sets) > 2:
        parser.error("report takes one or two sets")
    return cmd_run(args) if args.cmd == "run" else cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
