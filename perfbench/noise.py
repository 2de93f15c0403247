#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

Run from the repository root, for example:

    python3 perfbench/noise.py --workloads rpc-mix,engine-hot --seeds 1-10

For each workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)), the quartile spread as a
share of the median, and the whole per-run range as a share of the
median. Raw result lines are appended to .bench_build/noise/<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="rpc-mix,engine-hot,engine-ingest")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    secs = args.seconds or bench["run_seconds"]
    os.makedirs(".bench_build/noise", exist_ok=True)
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(secs), "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                sys.exit(f"{wl} seed {seed}: exit {out.returncode}\n{out.stderr}")
            last = out.stdout.strip().splitlines()[-1]
            with open(f".bench_build/noise/{wl}.jsonl", "a") as f:
                f.write(last + "\n")
            runs.append(json.loads(last))
        print(f"{wl}: {len(runs)} runs, seeds {args.seeds}, {secs}s, trace {args.trace}")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'range/med':>9}")
        for name in sorted(runs[0]["metrics"]):
            v = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(v) - min(v)) / med if med else 0.0
            print(f"  {name:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {iqr:8.3f} {rng:9.3f}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
