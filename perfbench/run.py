#!/usr/bin/env python3
"""Run one workload of the esm end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload wire-16k --seed 1 --seconds 20 --trace 0

It builds the `esm-perfbench` package against the repository's crates
(into $CARGO_TARGET_DIR, default `.bench_build`), runs the workload in its
own process, relays that process's report lines, checks its result
against BENCHMARK.json, and prints the result as the last line of
standard output: one JSON object with `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`). The exit code is 0 only when every output check passed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args()


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(env):
    """Build the benchmark binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail("the repository's crates are missing; nothing to benchmark")
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(
            cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "esm-perfbench")


def check_result(result, expected):
    """The result line must carry exactly the metrics BENCHMARK.json lists."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("no operation was attempted")
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(got) != set(want):
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in got.items():
        if m.get("unit") != want[name]:
            fail(f"{name}: unit {m.get('unit')} but BENCHMARK.json says {want[name]}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            fail(f"{name}: value {m.get('value')} is not a finite number")


def main():
    args = parse_args()
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    expected = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    # Sampling is set explicitly on every registry; the environment must
    # not override it.
    env.pop("ESM_TRACE_SAMPLE_EVERY", None)
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(env)
    # glibc gives every thread that allocates a heap arena of its own;
    # the clients re-spawn at each slice and restart, so without a cap
    # the peak resident set depends on which arenas happen to be reused.
    env["MALLOC_ARENA_MAX"] = "2"

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work,
        "--out-dir", os.path.join(ROOT, ".bench_out"),
    ]
    try:
        done = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, timeout=RUN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"workload run failed: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = done.stdout.decode("utf-8", "replace").splitlines()
    if not lines:
        fail(f"the workload printed nothing (exit code {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"the workload's last line is not a result (exit code {done.returncode})")
    check_result(result, expected)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
