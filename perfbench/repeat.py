#!/usr/bin/env python3
"""Repeat mode: run each workload N times, with seeds 1..N, and print
every metric's run-to-run spread next to its bound.

The spread of a metric is the distance between the first and third
quartile of its N values (``statistics.quantiles(values, n=4)``) as a
share of their median. A bounded metric is steady when its spread is
below a third of its bound. Runs go seed by seed through all the
workloads, so that a change in the machine's speed over the set falls
on every workload alike. Run from the repository root:

    python3 perfbench/repeat.py --runs 10                  # every workload
    python3 perfbench/repeat.py --runs 5 crawl_cold        # one workload
    python3 perfbench/repeat.py --runs 3 --trace 1         # per-layer metrics

The command, run length, workloads and bounds come from BENCHMARK.json.
Exits 1 when a run fails or a bounded metric is not steady.
"""

import argparse
import json
import statistics
import subprocess
import sys


def result_line(stdout):
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    return json.loads(lines[-1]) if lines else None


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    seconds = str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: {} for name in args.workloads}
    failed = {name: 0 for name in args.workloads}
    for seed in range(1, args.runs + 1):
        for name in args.workloads:
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", seconds, "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            result = result_line(proc.stdout)
            ok = proc.returncode == 0 and result is not None and result["correct"]
            failed[name] += not ok
            print(f"{name} seed {seed}{'' if ok else f'  FAILED (exit {proc.returncode})'}",
                  file=sys.stderr, flush=True)
            for metric, m in (result or {"metrics": {}})["metrics"].items():
                values[name].setdefault(metric, []).append(m["value"])

    steady = True
    for name in args.workloads:
        print(f"\n{name}: {args.runs} runs of {seconds} s, trace {args.trace}")
        print(f"  {'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for metric, vals in values[name].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            note = ""
            if bound is not None:
                ok = spread < bound / 3
                steady &= ok
                note = "" if ok else "  above bound/3"
            shown = "" if bound is None else f"{bound:.2f}"
            print(f"  {metric:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {shown:>6}{note}")
        print(f"  failed runs: {failed[name]} of {args.runs}")
    return 0 if steady and not any(failed.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
