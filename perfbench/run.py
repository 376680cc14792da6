#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload full_s8|sampled_s8|sharded_fine \
        --seed N --seconds S --trace 0|1

The perfbench binary is built with CMake (Release) into
$CARGO_TARGET_DIR/perfbench, or <repository root>/.bench_build/perfbench
when the variable is unset; the first run builds, later runs only rebuild
what changed. Build output goes to stderr, so the last line of standard
output is the binary's JSON result. Any further arguments (--scale,
--inject) pass through to the binary; perfbench/README.md describes them.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build(build_dir: Path) -> int:
    jobs = str(len(os.sched_getaffinity(0)))
    if not (build_dir / "CMakeCache.txt").exists():
        rc = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            return rc
    return subprocess.run(
        ["cmake", "--build", str(build_dir), "--parallel", jobs],
        stdout=sys.stderr, stderr=sys.stderr).returncode


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR")
    build_dir = Path(target) if target else HERE.parent / ".bench_build"
    build_dir = build_dir.resolve() / "perfbench"
    rc = build(build_dir)
    if rc != 0:
        print(f"perfbench: build failed ({rc})", file=sys.stderr)
        return rc
    cmd = [str(build_dir / "perfbench"), *sys.argv[1:],
           "--out-dir", str(build_dir / "out")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
