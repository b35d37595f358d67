#!/usr/bin/env python3
"""Line-coverage floor for the source directories that parse guest data.

Runs `gcov -p -b` over every object of a `--coverage -O0` build tree
(after ctest has run in it), sums the line coverage of the .cpp files of
each checked directory under src/ (headers are left out), prints one row
per checked file and one per directory, and exits 1 when any directory is
more than SLACK points below its floor.

The floors are the baselines measured the same way and recorded in
ROADMAP.md (open items, "Coverage").  gcov ships with GCC; lcov and
gcovr are not needed.

Usage:
  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
      -DCMAKE_CXX_FLAGS="--coverage -O0" -DCMAKE_EXE_LINKER_FLAGS=--coverage
  cmake --build build-cov -j && ctest --test-dir build-cov
  python3 tools/coverage_floor.py build-cov
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

# Per-directory line coverage floors (percent), from ROADMAP.md.
FLOORS = {"pe": 95.0, "elf": 96.7, "guestos": 97.8, "vmi": 92.9}
# Points a directory may fall below its floor before the check fails.
SLACK = 1.0

FILE_RE = re.compile(r"^File '(.*)'$")
LINES_RE = re.compile(r"^Lines executed:([0-9.]+)% of ([0-9]+)$")


def gcov_summaries(build_dir):
    """(source path, lines executed, lines) for every file gcov reports."""
    # Every compiled object has a .gcno; one that never ran has no .gcda
    # and gcov reports its lines as not executed.
    gcnos = []
    for root, _, files in os.walk(build_dir):
        gcnos += [os.path.join(root, f) for f in files if f.endswith(".gcno")]
    out = []
    # gcov writes .gcov files into its working directory; keep them out of
    # the tree.
    with tempfile.TemporaryDirectory() as scratch:
        for gcno in sorted(gcnos):
            run = subprocess.run(
                ["gcov", "-p", "-b", "-o", os.path.dirname(gcno),
                 os.path.abspath(gcno)],
                cwd=scratch, capture_output=True, text=True, check=False)
            source = None
            for line in run.stdout.splitlines():
                m = FILE_RE.match(line)
                if m:
                    source = m.group(1)
                    continue
                m = LINES_RE.match(line)
                if m and source is not None:
                    total = int(m.group(2))
                    hit = round(float(m.group(1)) * total / 100.0)
                    out.append((source, hit, total))
                    source = None
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir")
    parser.add_argument("--src", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
    args = parser.parse_args()

    src = os.path.realpath(args.src)
    per_file = {}
    for source, hit, total in gcov_summaries(args.build_dir):
        path = os.path.realpath(source if os.path.isabs(source)
                                else os.path.join(args.build_dir, source))
        rel = os.path.relpath(path, src)
        parts = rel.split(os.sep)
        if rel.startswith(os.pardir) or len(parts) != 2 or \
                not rel.endswith(".cpp") or parts[0] not in FLOORS:
            continue
        # A source compiled once is reported once per .gcda that includes
        # it; keep the best-covered report of each file.
        if per_file.get(rel, (0, 0))[0] <= hit:
            per_file[rel] = (hit, total)

    for f, (hit, total) in sorted(per_file.items()):
        print(f"  {f:32} {100.0 * hit / total:5.1f}% of {total:5} lines")
    failed = False
    for d, floor in sorted(FLOORS.items()):
        hit = sum(h for f, (h, _) in per_file.items() if f.startswith(d + "/"))
        total = sum(t for f, (_, t) in per_file.items()
                    if f.startswith(d + "/"))
        if total == 0:
            print(f"{d + '/':10} no coverage data")
            failed = True
            continue
        pct = 100.0 * hit / total
        ok = pct >= floor - SLACK
        failed |= not ok
        print(f"{d + '/':10} {pct:5.1f}% of {total:5} lines  "
              f"(floor {floor:.1f}%)  {'ok' if ok else 'BELOW FLOOR'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
