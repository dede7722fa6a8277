#!/usr/bin/env python3
"""Served-path benchmark for srtd-server.

Builds srtd-server and the load generator (perfbench/loadgen) from
source, then runs one workload and passes its output through. The last
line of standard output is the run's JSON result.

    python3 perfbench/run.py --workload tr-stream --seed 1 --seconds 15 --trace 0

Workloads, metrics and checks are described in perfbench/README.md.
Builds go to $CARGO_TARGET_DIR (default .bench_build in the checkout);
span logs of traced runs go to its perfbench/ subdirectory.

The load generator runs pinned to one CPU, and the server it spawns
inherits the pin. The protocol is strictly one request at a time, so
the two never compete for the CPU, and no request pays a wake-up on
another vCPU: on a small shared VM, letting them (and the server's
worker pool) float across vCPUs made run-to-run times swing by a third
or more.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NEEDED = ("Cargo.toml", "src/bin/srtd-server.rs", "crates", "perfbench/loadgen/Cargo.toml")


def main():
    missing = [p for p in NEEDED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"error: {', '.join(missing)} missing; run from a full checkout", file=sys.stderr)
        return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["--bin", "srtd-server"],
        ["--manifest-path", "perfbench/loadgen/Cargo.toml"],
    )
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print(f"error: {' '.join(cmd)} failed", file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    loadgen = os.path.join(release, "srtd-loadgen")
    # The affinity mask survives execv and is inherited by every child.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    args = [
        loadgen,
        "--server",
        os.path.join(release, "srtd-server"),
        "--out",
        os.path.join(target, "perfbench"),
        *sys.argv[1:],
    ]
    sys.stdout.flush()
    os.execv(loadgen, args)


if __name__ == "__main__":
    sys.exit(main())
