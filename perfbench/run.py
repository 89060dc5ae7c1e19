#!/usr/bin/env python3
"""Builds the benchmark and runs one workload on one CPU.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark is a Cargo package of
its own (perfbench/Cargo.toml) that depends on the repository's crates by
path; it is built in release mode into $CARGO_TARGET_DIR (default
perfbench/target). The arguments are passed to the benchmark unchanged,
and its last line of output is one JSON object with the run's metrics.

The benchmark process is pinned to one CPU: its threads (the served-hot
client, server connection thread and pool worker) then hand off on one
core, so run-to-run figures do not depend on where the scheduler happens
to place them.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(os.path.abspath(target), "release", "adt-perfbench")
    cpus = sorted(os.sched_getaffinity(0))
    return subprocess.run(
        [binary] + sys.argv[1:],
        preexec_fn=lambda: os.sched_setaffinity(0, {cpus[0]}),
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
