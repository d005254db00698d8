#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,3] [--trace 0|1]
                                [--seconds S] [--out results.jsonl]

For every workload x metric it prints the median and quartiles across the
runs (Python's statistics.quantiles, n=4), the interquartile distance as a
share of the median, and, for end-to-end metrics, that share against the
metric's bound in BENCHMARK.json (spread must stay below the bound; the
benchmark aims for a third of it). `setup_s` is judged like every other
metric. Every run's result line is appended to
--out, tagged with its workload and seed, so a report can be rebuilt with
--from FILE without running anything.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    """(q1, median, q3, iqr/median) of values, by statistics.quantiles (n=4)."""
    if len(values) < 2:
        v = values[0]
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / abs(med) if med else float("inf")
    return q1, med, q3, share


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def report(records, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in sorted({r["workload"] for r in records}):
        rows = [r["result"] for r in records if r["workload"] == workload]
        attempted = sum(r["attempted"] for r in rows)
        failed = sum(r["failed"] for r in rows)
        print(f"\n{workload}: {len(rows)} runs, {failed}/{attempted} operations failed")
        for name in rows[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rows]
            q1, med, q3, share = spread(values)
            line = f"  {name:<34} median {med:<12.6g} [{q1:.6g}, {q3:.6g}]  iqr/median {share:6.3f}"
            if name in bounds:
                line += f"  bound {bounds[name]:.2f}"
                worst = max(worst, share / bounds[name])
                line += "  OK" if share < bounds[name] / 3 else ("  WIDE" if share < bounds[name] else "  OVER")
            print(line)
    return worst


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--from", dest="source", default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.source:
        with open(args.source) as f:
            records = [json.loads(line) for line in f if line.strip()]
    else:
        workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
        seconds = args.seconds or bench["run_seconds"]
        records = []
        for seed in [int(s) for s in args.seeds.split(",")]:
            for workload in workloads:
                rec = {"workload": workload, "seed": seed,
                       "result": run_one(workload, seed, seconds, args.trace)}
                records.append(rec)
                if args.out:
                    with open(args.out, "a") as f:
                        f.write(json.dumps(rec) + "\n")
                print(f"# {workload} seed {seed} done", file=sys.stderr)
    worst = report(records, bench)
    print(f"\nworst end-to-end spread, as a share of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()
