#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on seeds 1-10 of every workload in
BENCHMARK.json and prints, per end-to-end metric, the median and the
interquartile range as a share of the median, next to the metric's bound.
Each run's human-readable lines (which also show the host's unscaled
times) are echoed as they come.

Run from the repository root after building the benchmark once:

    python3 perfbench/steadiness.py
"""
import json
import statistics
import subprocess

RUNS = 10


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        failed = set()
        for seed in range(1, RUNS + 1):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            *lines, last = out.stdout.strip().splitlines()
            print("\n".join(lines), flush=True)
            result = json.loads(last)
            failed.add((result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload}: (failed, attempted) per run {sorted(failed)}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"   {name:14} median {med:10.4f}  iqr/median {spread:6.3f}  "
                  f"bound {bounds[name]:.2f}  min {min(vals):.4f} max {max(vals):.4f}")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
