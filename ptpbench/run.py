#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 ptpbench/run.py --workload <verify|live-batched|db-sim|live-forced> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (ptpbench/Cargo.toml) with path
dependencies on the repository's crates. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build under the current directory), then
run with the same arguments. The last line of standard output is the
result object; build output goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "ptpbench")
    # One malloc arena: with glibc's default of one per thread, whether a
    # live node's thread gets an arena of its own depends on scheduling,
    # and peak RSS jumps by about 4.5 MB on some runs and not on others.
    run_env = dict(os.environ, MALLOC_ARENA_MAX="1")
    try:
        ran = subprocess.run([binary] + sys.argv[1:], env=run_env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark did not finish: {e}", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
