#!/usr/bin/env python3
"""Builds and runs the host-clock benchmark.

    python3 hostbench/run.py --workload pool_scan --seed 1 --seconds 10 --trace 0

Run from the root of a modchecker source tree.  The first run configures
and builds the tree's libraries and the benchmark (RelWithDebInfo, the
tree's default build type) into .bench_build/hostbench, or into
$CARGO_TARGET_DIR/hostbench when that is set; later runs only re-check the
build.  Every run then executes the harness self-test and the benchmark,
whose last line of standard output is the JSON result.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"hostbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    log = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "hostbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "hostbench",
                  "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed: " + " ".join(step))
    return build_dir / "hostbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["pool_scan", "event_ticks", "fleet", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"no modchecker source tree at {root}")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = (root / target / "hostbench").resolve()
    binary = build(root, build_dir)

    selftest = subprocess.run([str(binary), "--selftest"], capture_output=True,
                              text=True, timeout=60)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        fail("harness self-test failed")

    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    try:
        code = subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
