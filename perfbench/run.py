#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload explore-high --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build lives in $CARGO_TARGET_DIR
(default .bench_build) under the checkout, and so does the scratch space
for write-ahead logs. The last line of stdout is the result JSON; the exit
code is non-zero when the build fails or any correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["explore-high", "explore-low", "fleet-budget", "stream-wal"]


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(targets):
    """Configures once, then builds incrementally; logs go to stderr."""
    out = build_dir()
    # The Makefile appears only once a configure step has succeeded.
    if not os.path.exists(os.path.join(out, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4", "--target", *targets],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def clean_env():
    # EVA_* variables reconfigure the engine (threads, faults, telemetry);
    # the benchmark measures the defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("EVA_")}


def self_test():
    out = build(["perfbench", "perfbench_selftest"])
    subprocess.run([os.path.join(out, "perfbench_selftest")], check=True)
    listed = json.loads(subprocess.run(
        [os.path.join(out, "perfbench"), "--list-metrics"], check=True,
        capture_output=True, text=True).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m for m in spec[section]}
        emitted = {m["name"]: m for m in listed[section]}
        if declared.keys() != emitted.keys():
            raise SystemExit(f"{section}: BENCHMARK.json lists "
                             f"{sorted(declared)} but the benchmark emits "
                             f"{sorted(emitted)}")
        for name, m in emitted.items():
            d = declared[name]
            if d["unit"] != m["unit"] or d.get("better") != m["better"]:
                raise SystemExit(f"{name}: unit or direction differs")
            if section == "end_to_end" and not 0 < d["bound"] <= 0.25:
                raise SystemExit(f"{name}: bound out of range")
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        raise SystemExit("workload list differs from BENCHMARK.json")
    print("self-test ok")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    try:
        out = build(["perfbench"])
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2
    work = os.path.join(os.path.dirname(out), f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        proc = subprocess.run(
            [os.path.join(out, "perfbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work-dir", work],
            env=clean_env(), timeout=175)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
