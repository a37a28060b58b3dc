#!/usr/bin/env python3
"""Build the GR miner's daemon and the benchmark harness, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload mine-inmem --seed 1 --seconds 10 --trace 0

Both builds are release builds into $CARGO_TARGET_DIR (default
`.bench_build`). The harness prints the result as the last line of stdout;
build output goes to stderr. The exit code is the harness's, or the
failing build's.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path"]
    for build in (
        cargo + [os.path.join(ROOT, "Cargo.toml"), "--bin", "grmined"],
        cargo + [os.path.join(ROOT, "perfbench", "Cargo.toml")],
    ):
        done = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(build), file=sys.stderr)
            return done.returncode or 1
    release = os.path.join(target, "release")
    harness = [
        os.path.join(release, "perfbench"),
        "--grmined", os.path.join(release, "grmined"),
        "--work", os.path.join(target, "perfbench-work"),
    ]
    return subprocess.run(harness + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
