#!/usr/bin/env python3
"""Build and run the AnyOpt benchmark.

    python3 perfbench/run.py --workload pipeline|serve|internet \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The first run configures and builds the
libraries under src/ plus the benchmark into the build directory
($CARGO_TARGET_DIR, default .bench_build); later runs rebuild only what
changed.  The benchmark's own output is passed through, and its last line,
the JSON result, is checked against BENCHMARK.json before it is printed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir, targets):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    command = ["cmake", "--build", build_dir, "-j", jobs, "--target", *targets]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the benchmark printed no JSON result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != names:
        fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json "
             f"{sorted(names.items())}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if args.selftest:
        build(build_dir, ["perfbench_selftest"])
        sys.exit(subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest")]).returncode)
    if not args.workload:
        fail("--workload is required")

    build(build_dir, ["perfbench"])
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spans-out", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.jsonl"),
        "--commit", commit or "none",
        "--dirty", "unknown" if status is None else str(int(bool(status))),
    ]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"the benchmark exited with code {proc.returncode}")
    check_result(lines[-1], args.trace)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
