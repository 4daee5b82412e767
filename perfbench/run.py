#!/usr/bin/env python3
"""Build and run vliwmt's benchmark, perfbench.

Run from the repository root:

    python3 perfbench/run.py --workload fig10-cold --seed 1 --seconds 10 --trace 0

Arguments are passed through to the benchmark binary (see main.go). The
binary, the Go build cache and the benchmark's scratch files live in the
build directory: $CARGO_TARGET_DIR when set, else .bench_build at the
repository root. The exit code is the build's when it fails, else the
benchmark's.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    )
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=os.path.join(build, "gotmp"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    for d in (env["GOCACHE"], env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    work = os.path.join(build, "work")
    return subprocess.run([binary, "-work", work] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
