#!/usr/bin/env python3
"""Steadiness check of the repository benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--sets 1] [--first-seed 1]
                                    [--workload NAME ...] [--json OUT]

Run from the repository root. Runs perfbench/run.py --trace 0 on each
workload `--runs` times, each with its own seed, and prints for every
end-to-end metric of BENCHMARK.json its median, quartiles and spread (the
interquartile range as a share of the median, from
statistics.quantiles(values, n=4)) against the metric's bound. The spread
of setup_s is reported but not held to its bound.

With --sets 2 it repeats the whole measurement on fresh seeds and also
checks that the second median is not worse than the first by more than the
bound. Exits 1 when a spread or a median shift exceeds its bound, or when
a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    """(q1, median, q3, IQR / median) with Python's default quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else float("inf")


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--json", help="also write every value here")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    ok = True
    record = {}
    seed = args.first_seed
    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(workload, seed, args.seconds))
                seed += 1
            sets.append(runs)
        record[workload] = sets
        print(f"\n{workload} ({args.runs} runs x {args.sets} set(s))")
        print(f"  {'metric':16} {'set':>3} {'q1':>12} {'median':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>6}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for index, runs in enumerate(sets, 1):
                q1, median, q3, share = spread([r[name] for r in runs])
                medians.append(median)
                held = name == "setup_s" or share <= bound
                verdict = "ok" if held else "TOO WIDE"
                if held and name != "setup_s" and share > bound / 3:
                    verdict = "ok (above a third of the bound)"
                ok &= held
                print(f"  {name:16} {index:>3} {q1:12.6g} {median:12.6g} "
                      f"{q3:12.6g} {share:7.3f} {bound:6.3f}  {verdict}")
            if len(medians) == 2:
                shift = worse_by(medians[0], medians[1], metric["better"])
                held = shift <= bound
                ok &= held
                print(f"  {name:16} second median worse by {shift:+.3f} "
                      f"({'ok' if held else 'BEYOND BOUND'})")
    if args.json:
        with open(args.json, "w") as out:
            json.dump(record, out, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
