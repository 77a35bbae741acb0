#!/usr/bin/env python3
"""Builds ctserve and the cachebench harness from source, then runs one workload.

Usage, from the root of a checkout:

    python3 cachebench/run.py --workload sweep|serve-warm \
        --seed N --seconds S --trace 0|1

Both builds go to $CARGO_TARGET_DIR (default: target/ at the root). The
harness's standard output is passed through; its last line is the result.
Build output goes to standard error.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "cachetime-serve", "--bin", "ctserve"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "cachebench/Cargo.toml"],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            sys.exit(f"build failed: {' '.join(cmd)}")
    exe = os.path.join(target, "release", "cachebench")
    ctserve = os.path.join(target, "release", "ctserve")
    ran = subprocess.run([exe, "--ctserve", ctserve, *sys.argv[1:]], cwd=ROOT)
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
