#!/usr/bin/env python3
"""Prints per-metric deltas from the perfbench trajectory.

    python3 tools/bench_diff.py
    python3 tools/bench_diff.py RUN.txt [RUN.txt ...]
    python3 tools/bench_diff.py --entry LABEL RUN.txt [RUN.txt ...]

The trajectory (bench/trajectory/BENCH_perfbench.json by default, or
--trajectory PATH) is a list of entries, oldest first. Each entry holds, per
workload, the median and quartiles of every end-to-end metric over repeated
untraced runs and the per-layer metrics of one traced run, with provenance.

With no RUN files, prints each entry's change against the entry before it.
With RUN files (the saved stdout of `python3 perfbench/run.py ...`), prints
each run against the newest entry that has its workload. With --entry,
prints a new entry built from the RUN files instead, ready to append.

Reporting only: the exit code is 0 whatever the deltas are, and 2 when an
input is missing or malformed.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_TRAJECTORY = os.path.join(ROOT, "bench", "trajectory",
                                  "BENCH_perfbench.json")


def fail(message):
    print(f"bench_diff: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")


def parse_run(path):
    """(report, metrics) of one saved run.py output.

    report is the binary's `report {...}` line (workload, seed, trace,
    provenance, digests); metrics maps name -> value from the final line.
    """
    try:
        with open(path) as f:
            lines = [line.rstrip("\n") for line in f]
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    report = None
    for line in lines:
        if line.startswith("report {"):
            try:
                report = json.loads(line[len("report "):])
            except json.JSONDecodeError:
                fail(f"{path}: malformed report line")
    if report is None:
        fail(f"{path}: no report line")
    result = lines[-1] if lines else ""
    try:
        metrics = json.loads(result)["metrics"]
        return report, {name: m["value"] for name, m in metrics.items()}
    except (json.JSONDecodeError, KeyError, TypeError):
        fail(f"{path}: last line is not a perfbench result")


def quartiles(values):
    """(q1, median, q3), inclusive method; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def build_entry(label, paths):
    """An entry from runs: end-to-end spread per (workload, seed), per-layer
    values from the traced run of each workload."""
    runs = {}
    traced = {}
    provenance = None
    for path in paths:
        report, metrics = parse_run(path)
        provenance = provenance or report["provenance"]
        key = (report["workload"], report["seed"])
        if report["trace"]:
            traced[report["workload"]] = (report["seed"], metrics,
                                          report["digests"])
        else:
            runs.setdefault(key, []).append((metrics, report["digests"]))
    workloads = {}
    seeds = sorted({seed for _, seed in runs})
    for (workload, seed), group in sorted(runs.items()):
        end_to_end = {}
        for name in sorted(group[0][0]):
            q1, median, q3 = quartiles([m[name] for m, _ in group])
            end_to_end[name] = {"median": median, "q1": q1, "q3": q3}
        digests = {json.dumps(d, sort_keys=True) for _, d in group}
        if len(digests) != 1:
            fail(f"{workload} seed {seed}: digests differ between runs")
        by_seed = workloads.setdefault(workload, {}).setdefault("seeds", {})
        by_seed[str(seed)] = {"runs": len(group), "end_to_end": end_to_end,
                              "digests": group[0][1]}
    for workload, (seed, metrics, _) in sorted(traced.items()):
        workloads.setdefault(workload, {})["per_layer"] = {
            "seed": seed, "values": metrics}
    if provenance is None:
        fail("no runs given")
    keep = ("git_sha", "source_digest", "build_type", "compiler",
            "thread_pool_size", "nproc")
    return {"label": label,
            "provenance": dict({k: provenance[k] for k in keep},
                               seeds=seeds),
            "workloads": workloads}


def delta(before, after):
    if before == 0:
        return "   n/a" if after == 0 else "  new"
    return f"{100.0 * (after - before) / abs(before):+6.1f}%"


def print_end_to_end(workload, seed, before, after):
    """Medians of two entries for one (workload, seed); `spread` flags a
    delta inside the before side's interquartile range."""
    for name in sorted(set(before) & set(after)):
        b, a = before[name], after[name]
        inside = b["q1"] <= a["median"] <= b["q3"]
        print(f"  {workload:<12} s{seed:<3} {name:<18} "
              f"{b['median']:>12.4g} -> {a['median']:>12.4g} "
              f"{delta(b['median'], a['median'])}"
              f"{'  (within spread)' if inside else ''}")


def print_per_layer(workload, before, after):
    for name in sorted(set(before["values"]) & set(after["values"])):
        b, a = before["values"][name], after["values"][name]
        print(f"  {workload:<12} trace {name:<36} {b:>12.4g} -> {a:>12.4g} "
              f"{delta(b, a)}")


def diff_entries(old, new):
    print(f"{old['label']} -> {new['label']}")
    for workload in sorted(set(old["workloads"]) & set(new["workloads"])):
        ow, nw = old["workloads"][workload], new["workloads"][workload]
        for seed in sorted(set(ow.get("seeds", {})) & set(nw.get("seeds", {})),
                           key=int):
            print_end_to_end(workload, seed, ow["seeds"][seed]["end_to_end"],
                             nw["seeds"][seed]["end_to_end"])
        if "per_layer" in ow and "per_layer" in nw:
            print_per_layer(workload, ow["per_layer"], nw["per_layer"])


def diff_run(entries, path):
    report, metrics = parse_run(path)
    workload, seed = report["workload"], str(report["seed"])
    for entry in reversed(entries):
        w = entry["workloads"].get(workload)
        if w is None:
            continue
        print(f"{path} against {entry['label']}")
        if report["trace"]:
            if "per_layer" in w:
                print_per_layer(workload, w["per_layer"], {"values": metrics})
                return
        elif seed in w.get("seeds", {}):
            single = {n: {"median": v, "q1": v, "q3": v}
                      for n, v in metrics.items()}
            print_end_to_end(workload, seed, w["seeds"][seed]["end_to_end"],
                             single)
            return
    print(f"{path}: no trajectory entry for {workload} seed {seed} "
          f"(trace={int(report['trace'])})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trajectory", default=DEFAULT_TRAJECTORY)
    parser.add_argument("--entry", metavar="LABEL",
                        help="print a trajectory entry built from the runs")
    parser.add_argument("runs", nargs="*", metavar="RUN")
    args = parser.parse_args()

    if args.entry is not None:
        print(json.dumps(build_entry(args.entry, args.runs), indent=2))
        return
    trajectory = load_json(args.trajectory)
    entries = trajectory.get("entries") if isinstance(trajectory, dict) else None
    if not isinstance(entries, list) or not entries:
        fail(f"{args.trajectory}: no entries")
    if args.runs:
        for path in args.runs:
            diff_run(entries, path)
    else:
        for old, new in zip(entries, entries[1:]):
            diff_entries(old, new)


if __name__ == "__main__":
    main()
