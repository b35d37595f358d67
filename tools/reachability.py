#!/usr/bin/env python3
"""Fail when a src/ translation unit is reached from no entry point.

Walks the quoted-include closure from every entry point of the tree (the
CLI, mc_lint, the benches, the examples and hostbench).  A reached header
src/a/b.hpp also reaches its implementation file src/a/b.cpp, whose own
includes are then followed.  Every src/**/*.cpp outside the closure and
outside ALLOWLIST is printed and the script exits 1; code that only tests
reach is not product code and should be deleted with its tests.

An include "x" is resolved against the including file's directory first,
then against src/; includes that resolve to neither (system and
third-party headers) are skipped.

Usage:
  python3 tools/reachability.py [tree]     # tree defaults to the repo root
"""

import argparse
import glob
import os
import re
import sys

# Entry points, as globs relative to the tree root.  mc_lint's own
# fixture-driven self-test is a test, not an entry point.
ENTRY_GLOBS = [
    "tools/modchecker_cli.cpp",
    "tools/mc_lint/*.cpp",
    "bench/*.cpp",
    "examples/*.cpp",
    "hostbench/src/*.cpp",
]
ENTRY_EXCLUDE = {"tools/mc_lint/analyze_test.cpp"}

# src/ files that are linked in although no include reaches them, each
# with its reason.
ALLOWLIST = {
    "src/pe/format_plugin.cpp":
        "registers the PE32 plugin by static initialization, not by include",
    "src/elf/format_plugin.cpp":
        "registers the ELF64 plugin by static initialization, not by include",
    "src/attacks/hollowing.cpp":
        "experiment input kept for the detection tests (ROADMAP item 8, "
        "'What stays')",
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def includes(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return INCLUDE_RE.findall(f.read())


def resolve(tree, including, name):
    for base in (os.path.dirname(including), os.path.join(tree, "src")):
        candidate = os.path.normpath(os.path.join(base, name))
        if os.path.isfile(candidate):
            return candidate
    return None


def closure(tree, entries):
    """Every file reached from `entries`, implementation files included."""
    seen = set()
    stack = list(entries)
    while stack:
        path = stack.pop()
        if path in seen:
            continue
        seen.add(path)
        for name in includes(path):
            target = resolve(tree, path, name)
            if target is None:
                continue
            stack.append(target)
            impl = os.path.splitext(target)[0] + ".cpp"
            if target.endswith(".hpp") and os.path.isfile(impl):
                stack.append(impl)
    return seen


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "tree", nargs="?",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    tree = os.path.abspath(parser.parse_args().tree)

    entries = []
    for pattern in ENTRY_GLOBS:
        for path in sorted(glob.glob(os.path.join(tree, pattern))):
            if os.path.relpath(path, tree) not in ENTRY_EXCLUDE:
                entries.append(os.path.normpath(path))
    if not entries:
        print(f"reachability: no entry points under {tree}", file=sys.stderr)
        return 2

    reached = {os.path.relpath(p, tree) for p in closure(tree, entries)}
    sources = sorted(
        os.path.relpath(p, tree)
        for p in glob.glob(os.path.join(tree, "src", "**", "*.cpp"),
                           recursive=True))

    failed = False
    for src in sources:
        if src not in reached and src not in ALLOWLIST:
            print(f"unreachable: {src} (no entry point includes it)")
            failed = True
    for src, reason in sorted(ALLOWLIST.items()):
        if src not in sources:
            print(f"stale allowlist entry: {src} does not exist")
            failed = True
        elif src in reached:
            print(f"stale allowlist entry: {src} is reached ({reason})")
            failed = True
    print(f"reachability: {len(entries)} entry points, "
          f"{len(sources)} src/ .cpp files, "
          f"{len(sources) - len(ALLOWLIST)} must be reached => "
          f"{'FAIL' if failed else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
