#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `scmd` (the repository's CLI, whose `serve` subcommand the job
service workloads spawn) and the `sc-perfbench` binary in release mode,
then runs the binary with the given arguments. When a build changed a
binary, the build's written files are flushed to disk before measuring,
so their write-back does not compete with the run. Build output goes to
stderr; the benchmark's result is the last line of stdout. Cargo's target
directory is `$CARGO_TARGET_DIR`, or `.bench_build` when that is unset.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "--bin", "scmd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    release = os.path.join(target, "release")
    binaries = [os.path.join(release, name) for name in ("scmd", "sc-perfbench")]

    def stamps():
        return [os.stat(b).st_mtime_ns if os.path.exists(b) else None for b in binaries]

    before = stamps()
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    if stamps() != before:
        os.sync()
    bench = [os.path.join(release, "sc-perfbench"), *sys.argv[1:],
             "--scmd", os.path.join(release, "scmd")]
    return subprocess.run(bench).returncode


if __name__ == "__main__":
    sys.exit(main())
