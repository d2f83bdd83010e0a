#!/usr/bin/env python3
"""Steadiness helper and traced-run report for the repository benchmark.

Run from the root of a checkout:

  python3 perfbench/steady.py --runs 10                 # every workload
  python3 perfbench/steady.py --runs 5 --workloads simd-cluster
  python3 perfbench/steady.py --report                  # per-layer tables

Steadiness mode runs each workload N times, each with its own seed, and
prints every end-to-end metric's median, quartiles (statistics.quantiles,
n=4) and spread, the quartile distance as a share of the median, against
the metric's bound in BENCHMARK.json. A spread under a third of the bound
is steady; setup_s's spread is shown but not held to its bound.

Report mode makes one untraced and one traced run per workload on the same
seed, prints the per-layer table of the traced run and the tracing
overhead: the traced run's wall_s and served_per_s against the untraced.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    # A traced run also prints its per-layer table to stderr; the report
    # prints it from the result line instead.
    stderr = subprocess.DEVNULL if trace else None
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=stderr, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)}: exit {proc.returncode}")
    out = json.loads(lines[-1])
    if not out["correct"] or out["failed"]:
        print(f"  {workload} seed {seed}: correct={out['correct']} failed={out['failed']}/{out['attempted']}")
    return out


def steadiness(bench, workloads, runs, seed0):
    worst = []
    for wl in workloads:
        values = {}
        for i in range(runs):
            out = run_once(bench, wl, seed0 + i, 0)
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {wl} run {i + 1}/{runs} done", file=sys.stderr)
        print(f"\n{wl}: {runs} runs, seeds {seed0}..{seed0 + runs - 1}")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m["bound"]
            if m["name"] == "setup_s":
                verdict = "(not held)"
            elif spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
            worst.append((spread / bound, wl, m["name"]))
            print(f"  {m['name']:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} {bound:>6}  {verdict}")
    worst.sort(reverse=True)
    print("\nwidest spreads against their bounds:")
    for r, wl, name in worst[:5]:
        print(f"  {wl:<14} {name:<20} {r:.3f} of bound")


def report(bench, workloads, seed):
    for wl in workloads:
        plain = run_once(bench, wl, seed, 0)["metrics"]
        traced = run_once(bench, wl, seed, 1)["metrics"]
        print(f"\n{wl} (seed {seed}), traced run:")
        for m in bench["per_layer"]:
            v = traced[m["name"]]["value"]
            if v:
                print(f"  {m['name']:<34} {v:>14.6g} {m['unit']}")
        for name in ("wall_s", "served_per_s"):
            a, b = plain[name]["value"], traced["traced." + name]["value"]
            print(f"  tracing overhead on {name}: untraced {a:.6g}, traced {b:.6g} ({(b - a) / a:+.1%})")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--report", action="store_true")
    args = ap.parse_args()
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    if args.report:
        report(bench, workloads, args.seed0)
    else:
        steadiness(bench, workloads, args.runs, args.seed0)


if __name__ == "__main__":
    main()
