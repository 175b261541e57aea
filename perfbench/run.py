#!/usr/bin/env python3
"""Builds the `ddm` CLI and the benchmark from source, then runs the
benchmark with the given arguments.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Build output goes to `$CARGO_TARGET_DIR`
(default `target`); run artifacts (traces, result stamps) go to
`<target>/perfbench`. Cargo's messages go to stderr, so the benchmark's
result object stays the last line of stdout.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or "target")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        [
            "cargo", "build", "--release", "--offline", "--locked", "-q",
            "--manifest-path", "Cargo.toml", "--bin", "ddm",
        ],
        [
            "cargo", "build", "--release", "--offline", "--locked", "-q",
            "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
        ],
    ]
    for cmd in builds:
        # stdout=stderr keeps cargo's output off our stdout.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("error: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    out = os.path.join(target, "perfbench")
    os.makedirs(out, exist_ok=True)
    bench = os.path.join(target, "release", "ddm-perfbench")
    ddm = os.path.join(target, "release", "ddm")
    sys.stdout.flush()
    return subprocess.run([bench, *sys.argv[1:], "--ddm", ddm, "--out", out], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
