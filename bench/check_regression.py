#!/usr/bin/env python3
"""Bench regression gate: diff a fresh quick-mode run against a baseline.

Both inputs are streams of JSON objects (one per line or pretty-printed,
concatenated) as produced by running the bench_* targets with --quick and
appending stdout to one file:

    for b in build/bench/bench_*; do "$b" --quick >> fresh_quick.json; done
    python3 bench/check_regression.py \
        --baseline BENCH_quick.json --fresh fresh_quick.json

Each object carries a "results" or "benchmarks" array whose entries have a
"name" plus numeric metrics. The gate compares metrics by suffix:

  *_ms   simulated milliseconds — deterministic (the executing thread
         charges the clock in a fixed order), gated at --tolerance
         (default 15%); only increases fail.
  *_ns   host wall nanoseconds (microbenchmarks) — noisy on shared CI
         runners, gated at --wall-tolerance (default 3.0 = 300%).

Everything else (hit_pct, counts, booleans) is informational. Exit status:
0 = no regressions, 1 = at least one regression or a malformed input,
2 = usage error.

--self-test proves the gate works end to end: a synthetic baseline must
pass against itself and must FAIL once its p50 is halved (i.e. the fresh
run looks 2x slower). CI runs this before trusting a green gate.
"""

import argparse
import json
import sys


def parse_json_stream(text, origin):
    """Yields every JSON object in a concatenated stream."""
    decoder = json.JSONDecoder()
    pos, n = 0, len(text)
    objects = []
    while pos < n:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            break
        try:
            obj, pos = decoder.raw_decode(text, pos)
        except json.JSONDecodeError as e:
            raise SystemExit(f"ERROR {origin}: bad JSON at offset {pos}: {e}")
        objects.append(obj)
    return objects


def collect_metrics(objects, origin):
    """Flattens a stream of bench objects into {result_name: {metric: value}}.

    Accepts both the macro-bench "results" arrays and the micro-bench
    "benchmarks" arrays; entries without a "name" are skipped with a
    warning rather than failing the gate.
    """
    table = {}
    for obj in objects:
        if not isinstance(obj, dict):
            continue
        bench = obj.get("benchmark") or obj.get("bench") or ""
        entries = obj.get("results") or obj.get("benchmarks") or []
        if not isinstance(entries, list):
            continue
        for entry in entries:
            if not isinstance(entry, dict):
                continue
            name = entry.get("name")
            if not name:
                print(f"WARN {origin}: unnamed entry under {bench!r} skipped")
                continue
            if "/" not in name and bench:
                name = f"{bench}/{name}"
            metrics = {
                k: v
                for k, v in entry.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            }
            if name in table:
                print(f"WARN {origin}: duplicate result {name!r}; "
                      "keeping the last occurrence")
            table[name] = metrics
    return table


def gated_tolerance(metric, tolerance, wall_tolerance):
    if metric.endswith("_ms"):
        return tolerance
    if metric.endswith("_ns"):
        return wall_tolerance
    return None  # informational only


def compare(baseline, fresh, tolerance, wall_tolerance):
    """Returns (regressions, notes); each regression is a printable line."""
    regressions = []
    notes = []
    for name, base_metrics in sorted(baseline.items()):
        if name not in fresh:
            regressions.append(f"{name}: missing from fresh run")
            continue
        fresh_metrics = fresh[name]
        for metric, base_value in sorted(base_metrics.items()):
            tol = gated_tolerance(metric, tolerance, wall_tolerance)
            if tol is None or metric not in fresh_metrics:
                continue
            new_value = fresh_metrics[metric]
            if base_value <= 0:
                continue  # nothing meaningful to compare against
            ratio = new_value / base_value
            if ratio > 1.0 + tol:
                regressions.append(
                    f"{name}: {metric} {base_value:.3f} -> {new_value:.3f} "
                    f"(+{(ratio - 1.0) * 100:.1f}% > {tol * 100:.0f}%)")
            elif ratio < 1.0 - tol:
                notes.append(
                    f"{name}: {metric} improved {base_value:.3f} -> "
                    f"{new_value:.3f} ({(1.0 - ratio) * 100:.1f}% faster — "
                    "consider refreshing the baseline)")
    for name in sorted(set(fresh) - set(baseline)):
        notes.append(f"{name}: new result not in baseline (not gated)")
    return regressions, notes


def run_gate(args):
    with open(args.baseline) as f:
        baseline = collect_metrics(parse_json_stream(f.read(), args.baseline),
                                   args.baseline)
    with open(args.fresh) as f:
        fresh = collect_metrics(parse_json_stream(f.read(), args.fresh),
                                args.fresh)
    if not baseline:
        print(f"ERROR {args.baseline}: no gated results found")
        return 1
    regressions, notes = compare(baseline, fresh, args.tolerance,
                                 args.wall_tolerance)
    for note in notes:
        print(f"NOTE {note}")
    if regressions:
        print(f"FAIL {len(regressions)} regression(s) vs {args.baseline}:")
        for r in regressions:
            print(f"  {r}")
        return 1
    print(f"OK {len(baseline)} result(s) within tolerance "
          f"(sim {args.tolerance * 100:.0f}%, "
          f"wall {args.wall_tolerance * 100:.0f}%)")
    return 0


def self_test(tolerance, wall_tolerance):
    """The gate must pass on an unchanged run and fail on a halved baseline
    p50 (fresh appears 2x slower)."""
    stream = (
        '{"benchmark":"selftest","mode":"quick","results":['
        '{"name":"selftest/eva","p50_ms":100.0,"p95_ms":180.0,'
        '"total_ms":900.0}]}\n'
        '{"bench":"selftest_micro","mode":"quick","benchmarks":['
        '{"name":"probe","p50_ns":50.0,"p95_ns":90.0,"mean_ns":55.0,'
        '"samples":30}]}\n')
    objects = parse_json_stream(stream, "<self-test>")
    baseline = collect_metrics(objects, "<self-test>")
    fresh = collect_metrics(objects, "<self-test>")

    regressions, _ = compare(baseline, fresh, tolerance, wall_tolerance)
    if regressions:
        print("SELF-TEST FAIL: identical runs flagged as regression:")
        for r in regressions:
            print(f"  {r}")
        return 1

    halved = {n: dict(m) for n, m in baseline.items()}
    halved["selftest/eva"]["p50_ms"] /= 2.0
    regressions, _ = compare(halved, fresh, tolerance, wall_tolerance)
    if not any("p50_ms" in r for r in regressions):
        print("SELF-TEST FAIL: halved baseline p50_ms not flagged "
              "(the gate would miss a 2x slowdown)")
        return 1

    dropped = {n: dict(m) for n, m in baseline.items()}
    del dropped["selftest/eva"]
    regressions, _ = compare(baseline,
                             {k: v for k, v in fresh.items()
                              if k != "selftest/eva"},
                             tolerance, wall_tolerance)
    if not any("missing" in r for r in regressions):
        print("SELF-TEST FAIL: missing fresh result not flagged")
        return 1

    print("SELF-TEST OK: pass-on-unchanged, fail-on-halved-baseline, "
          "fail-on-missing-result")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="committed baseline JSON stream "
                        "(e.g. BENCH_quick.json)")
    parser.add_argument("--fresh", help="freshly generated JSON stream")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="relative slowdown allowed on *_ms metrics "
                        "(default 0.15)")
    parser.add_argument("--wall-tolerance", type=float, default=3.0,
                        help="relative slowdown allowed on *_ns wall "
                        "metrics (default 3.0)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate catches a synthetic 2x "
                        "slowdown, then exit")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test(args.tolerance, args.wall_tolerance))
    if not args.baseline or not args.fresh:
        parser.error("--baseline and --fresh are required (or --self-test)")
    sys.exit(run_gate(args))


if __name__ == "__main__":
    main()
