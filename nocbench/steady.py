#!/usr/bin/env python3
"""Runs the BENCHMARK.json command several times per workload, each time with
another seed, and prints for every end-to-end metric the distance between the
first and third quartile of its values as a share of their median, beside the
metric's bound. Run from the root of the repository:

    python3 nocbench/steady.py [runs] [first_seed]

The benchmark is steady enough when every spread is below a third of its bound.
"""
import json
import statistics
import subprocess
import sys


def main():
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    first_seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for i in range(runs):
        for w in bench["workloads"]:
            cmd = bench["command"] + [
                "--workload", w["name"], "--seed", str(first_seed + i),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, (w["name"], result)
            for name, m in result["metrics"].items():
                values.setdefault((w["name"], name), []).append(m["value"])
        print(f"run {i + 1}/{runs} done", file=sys.stderr)
    worst = 0.0
    print(f"{'workload':<18} {'metric':<20} {'median':>14} {'spread':>8} {'bound':>7}")
    for (w, name), v in values.items():
        q = statistics.quantiles(v, n=4)
        median = statistics.median(v)
        spread = (q[2] - q[0]) / median
        if name != "setup_s":
            worst = max(worst, spread / bounds[name])
        print(f"{w:<18} {name:<20} {median:>14.4f} {spread:>8.2%} {bounds[name]:>7.0%}")
    print(f"largest spread is {worst:.2f} of its bound (setup_s aside)")


if __name__ == "__main__":
    main()
