#!/usr/bin/env python3
"""Build the benchmark and run one workload on one CPU.

Usage, from the repository root:

    python3 perfbench/run.py --workload elicit --seed 1 --seconds 10 --trace 0

The benchmark is built with cargo (release profile, offline) into
$CARGO_TARGET_DIR, or perfbench/target when that is unset; build output
goes to standard error.  The benchmark process is then confined to one CPU
of those this process may use, so its client, server and store threads
share that CPU the same way in every run.  Stores are written under
perfbench/work and removed at exit; a traced run leaves its spans in
perfbench/work/spans.  The exit code is the benchmark's, or the build's
when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    cpu = max(os.sched_getaffinity(0))
    run = subprocess.run(
        [
            os.path.join(target, "release", "perfbench"),
            *sys.argv[1:],
            "--workdir",
            os.path.join(HERE, "work"),
        ],
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        check=False,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
