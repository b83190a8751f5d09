#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics are steady.

    python3 perfbench/steadiness.py [--runs 10] [--workloads table4 ...]
                                    [--raw runs.json]

Run from the repository root. For each workload it makes two sets of
`--runs` untraced runs through perfbench/run.py, each run with its own seed
(set A uses seeds 1..N, set B seeds N+1..2N), and prints per end-to-end
metric: each set's median and quartiles, the spread (quartile distance as a
share of the median) and the disagreement (set B's median against set A's,
as a share of set A's, signed so that positive is worse). A metric passes
when each spread is within its bound from BENCHMARK.json and the
disagreement is not worse than the bound; the same rule holds for every
metric. The target, which the last column marks, is a spread below a third
of the bound.
Exit code 1 if any metric fails or any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(done.stdout.strip().split("\n")[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--raw", help="also write every run's metrics here")
    args = parser.parse_args()

    raw = {}
    ok = True
    for workload in args.workloads:
        sets = []
        for first_seed in (1, args.runs + 1):
            runs = [run_once(workload, s, bench["run_seconds"])
                    for s in range(first_seed, first_seed + args.runs)]
            sets.append(runs)
        raw[workload] = sets
        if args.raw:
            with open(args.raw, "w") as f:
                json.dump(raw, f, indent=1)
        print(f"== {workload}: 2 sets x {args.runs} runs")
        print(f"{'metric':18s} {'bound':>6s} {'A q1/med/q3':>30s} "
              f"{'B q1/med/q3':>30s} {'spreadA':>8s} {'spreadB':>8s} "
              f"{'disagree':>8s}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            a = summary([r[name] for r in sets[0]])
            b = summary([r[name] for r in sets[1]])
            spreads = [(s[2] - s[0]) / s[1] for s in (a, b)]
            disagree = sign * (b[1] - a[1]) / a[1]
            passed = disagree <= bound and max(spreads) <= bound
            steady = max(spreads) < bound / 3
            verdict = ("ok" if passed else "FAIL") + (
                "" if steady else " (spread above bound/3)")
            ok = ok and passed
            fmt = lambda s: "/".join(f"{x:.4g}" for x in s)
            print(f"{name:18s} {bound:6.3f} {fmt(a):>30s} {fmt(b):>30s} "
                  f"{spreads[0]:8.4f} {spreads[1]:8.4f} {disagree:8.4f}  "
                  f"{verdict}")
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
