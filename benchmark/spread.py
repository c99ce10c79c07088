#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json ten times, each with another seed,
and prints for each end-to-end metric the distance between the first and
third quartile of its ten values as a share of their median, next to the
metric's bound. The driver accepts the benchmark only while every spread
but setup_s's stays within the bound; aim for a third of it.

    python3 benchmark/spread.py [first_seed] [workload ...]
"""
import json
import statistics
import subprocess
import sys

spec = json.load(open("BENCHMARK.json"))
first = int(sys.argv[1]) if len(sys.argv) > 1 else 1
names = sys.argv[2:] or [w["name"] for w in spec["workloads"]]
worst = 0.0
for name in names:
    runs = []
    for seed in range(first, first + 10):
        out = subprocess.run(
            spec["command"] + ["--workload", name, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            check=True, capture_output=True, text=True).stdout
        line = json.loads(out.strip().splitlines()[-1])
        assert line["correct"] and line["failed"] == 0, line
        runs.append(line["metrics"])
    for m in spec["end_to_end"]:
        vals = [r[m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = ""
        if m["name"] != "setup_s" and spread > m["bound"]:
            flag = "  OVER THE BOUND"
        elif spread * 3 > m["bound"] > 0:
            flag = "  over a third of the bound"
        if m["name"] != "setup_s" and m["bound"] > 0:
            worst = max(worst, spread / m["bound"])
        print(f"{name:16s} {m['name']:22s} median {med:12.6g} {m['unit']:6s} "
              f"spread {spread:8.4f}  bound {m['bound']:<6g}{flag}", flush=True)
print(f"largest spread is {worst:.2f} of its bound")
