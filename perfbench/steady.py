#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs every workload (or the ones named) several times with a different
seed each time and prints, per end-to-end metric, the median, the first
and third quartiles (as statistics.quantiles gives them) and the spread
(Q3 - Q1) / median next to the metric's bound, flagging every spread
above its bound.

Run from the repository root:

    python3 perfbench/steady.py                  # seeds 1..10 per workload
    python3 perfbench/steady.py --runs 5 --workload monitor_steering

Exits 1 when a run exits with an error, fails its output check, reports a
failed operation, or when a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    accounting = json.loads(lines[-2]).get("accounting", {}) if len(lines) > 1 else {}
    return json.loads(lines[-1]), accounting


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bad = False
    for workload in names:
        results = []
        for seed in range(1, args.runs + 1):
            r, acc = run_once(bench, workload, seed)
            results.append(r)
            kept = {k: acc[k] for k in ("steps_kept", "steps", "periods_kept", "periods")
                    if k in acc}
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"steal={acc.get('host_steal_share', 0):.3f} "
                  + " ".join(f"{k}={v:g}" for k, v in kept.items()), flush=True)
        if not all(r["correct"] and r["failed"] == 0 for r in results):
            bad = True
            print("  ! an output check failed or an operation failed")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for spec in bench["end_to_end"]:
            vals = [r["metrics"][spec["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = spec["bound"]
            flag = ""
            if spread > bound:
                flag, bad = "  ! spread above bound", True
            elif spread > bound / 3:
                flag = "  (above a third of the bound)"
            print(f"  {spec['name']:34} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.4f} {bound:6.3f}{flag}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
