#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the root of a checkout. Builds perfbench/fusebench (Release)
against the checkout's library sources into .bench_build/, runs one
workload, reduces its raw record with perfbench/reduce.py and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. A fuller report of the run (every metric,
each rate step, per-phase counts) is left in .bench_work/.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import reduce  # noqa: E402
import schema  # noqa: E402

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
RUN_TIMEOUT_S = 170
# glibc malloc keeps memory it has freed instead of returning it to the
# kernel (no trimming, no blocks of their own mapping), so each build rep
# reuses the pages of the one before. Otherwise every rep faults its
# ~300 MB in again, and the cost of a page fault on a shared virtual
# machine moved build_s by a third between sets of runs.
MALLOC_TUNABLES = ("glibc.malloc.mmap_max=0:"
                   "glibc.malloc.trim_threshold=4294967296")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root):
    build_dir = os.path.join(root, BUILD_DIR, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "fusebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        schema.validate_spec(spec)
    except (OSError, ValueError) as e:
        fail(f"bad BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(root, WORK_DIR, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    raw_path = os.path.join(root, WORK_DIR, tag + ".raw.json")
    env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
    started = time.monotonic()
    try:
        subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", work, "--out", raw_path],
            check=True, stdout=sys.stderr, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        fail(f"fusebench failed: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(raw_path) as f:
        raw = json.load(f)
    os.remove(raw_path)

    e2e = reduce.end_to_end(raw)
    layers = reduce.per_layer(raw)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else e2e
    metrics = {}
    for m in wanted:
        value = source.get(m["name"])
        if value is None or not math.isfinite(value):
            fail(f"metric {m['name']} not measured (got {value})")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = sum(p["attempted"] for p in raw["phases"].values())
    failed = sum(p["failed"] for p in raw["phases"].values())
    result = {
        "correct": failed == 0 and math.isfinite(raw["auc_pr"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    try:
        schema.validate_result(result, spec, args.trace)
    except ValueError as e:
        fail(f"result breaks the contract: {e}")
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "wall_s": time.monotonic() - started,
        "phases": raw["phases"],
        "rates": reduce.rate_summaries(raw),
        "end_to_end": e2e, "per_layer": layers,
    }
    with open(os.path.join(root, WORK_DIR, tag + ".report.json"), "w") as f:
        json.dump(report, f, indent=1, default=str)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
