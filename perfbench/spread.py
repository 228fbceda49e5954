#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Runs perfbench/run.py (--trace 0) once per seed on each workload, from the
current directory, and prints for every end-to-end metric its median over
the runs and its spread: (q3 - q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them. A spread is flagged when it
is not below a third of the metric's bound in BENCHMARK.json (setup_s is
exempt from the spread rule). Raw per-run values go to stderr as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import reduce  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                check=True, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            print(json.dumps({"workload": workload, "seed": seed, **result}),
                  file=sys.stderr, flush=True)
            if not result["correct"] or result["failed"]:
                ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({args.runs} runs)")
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            spread = reduce.quartile_spread(xs)
            steady = m["name"] == "setup_s" or spread < m["bound"] / 3
            ok = ok and steady
            print(f"  {m['name']:<18} median {statistics.median(xs):<12.6g} "
                  f"spread {spread:.4f} bound {m['bound']}"
                  f"{'' if steady else '  <-- not steady'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
