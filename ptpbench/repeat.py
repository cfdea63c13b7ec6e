#!/usr/bin/env python3
"""Repeats the benchmark across seeds and summarizes each metric.

Usage, from the repository root:

    python3 ptpbench/repeat.py [--workloads verify,db-sim,...] [--seeds 1-10]
        [--seconds S] [--trace 0|1] [--repeat K]

Runs every workload once per seed (K times per seed with --repeat), then
prints, per workload and metric: median, first and third quartile (as
statistics.quantiles(values, n=4) gives them), min, max, and the spread
(third minus first quartile, as a share of the median) next to the metric's
bound in BENCHMARK.json. Raw results go to .bench_out/repeat-<trace>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec: str) -> list:
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=1000, cwd=ROOT)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    host = [json.loads(l)["host_record"] for l in lines if l.startswith('{"host_record"')]
    result["ref_rate"] = host[-1]["ref_rate"] if host else float("nan")
    if not result["correct"] or result["failed"]:
        tail = "\n".join(proc.stderr.strip().splitlines()[-3:])
        print(f"  {workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}\n{tail}", file=sys.stderr)
    return result


def main() -> int:
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--repeat", type=int, default=1)
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    results = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            for _ in range(args.repeat):
                runs.append(run_once(workload, seed, args.seconds, args.trace))
        results[workload] = runs
        walls = [r["wall_s"] for r in runs]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        correct = sum(r["correct"] for r in runs)
        refs = [r["ref_rate"] for r in runs]
        print(f"\n{workload}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"reference rate {min(refs):.0f}-{max(refs):.0f}/s, "
              f"correct {correct}/{len(runs)}, failed {failed}/{attempted}")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'min':>12s} {'max':>12s} {'spread':>8s} {'bound':>6s}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = " <- above a third of its bound"
            print(f"  {name:40s} {med:12.5g} {q1:12.5g} {q3:12.5g} {min(values):12.5g} "
                  f"{max(values):12.5g} {spread:8.4f} {bound if bound is not None else '-':>6}{flag}")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", f"repeat-{args.trace}.json"), "w") as f:
        json.dump(results, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
