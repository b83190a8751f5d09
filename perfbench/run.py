#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload table4 --seed 1 --seconds 10 --trace 0

Run from the repository root. The binary is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); a build that is
up to date costs a second. The binary's output is passed through; its last
line is the result object, whose metrics are plain numbers by name. This
script checks that they are exactly the metrics BENCHMARK.json and
perfbench/metrics.json name, and prints the result line with each value
paired with the unit BENCHMARK.json declares. Exit code: the binary's, or 1
if the build fails or the result does not match the declarations.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    steps = []
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(build_dir, g)) for g in generated):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:3])} exited {done.returncode}")
    return os.path.join(build_dir, "perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_digest():
    """sha256 over the sources the binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def declared_units(trace):
    """name -> unit of the metrics a run must report."""
    section = "per_layer" if trace else "end_to_end"
    with open(os.path.join(HERE, "metrics.json")) as f:
        described = set(json.load(f)[section])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)[section]}
    if set(units) != described:
        fail(f"BENCHMARK.json and metrics.json disagree on {section}")
    return units


def with_units(line, trace):
    """The binary's result line, each metric value paired with its unit."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    units = declared_units(trace)
    got = result["metrics"]
    if set(got) != set(units):
        fail(f"metrics differ from the declaration: missing "
             f"{sorted(set(units) - set(got))}, extra "
             f"{sorted(set(got) - set(units))}")
    result["metrics"] = {name: {"value": got[name], "unit": unit}
                         for name, unit in sorted(units.items())}
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["table4", "live_stream", "tenant_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    result = lines.pop() if lines and lines[-1].startswith("{") else None
    for line in lines:
        print(line)
    if result is not None:
        print(with_units(result, args.trace))
    elif done.returncode == 0:
        fail("perfbench printed no result")
    sys.stdout.flush()
    sys.exit(done.returncode)

if __name__ == "__main__":
    main()
