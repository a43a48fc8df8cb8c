#!/usr/bin/env python3
"""Build and run the benchmark for one workload.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 22 --trace 0

Builds the Go benchmark (this directory, a module of its own that compiles
the repository's sources through a replace directive) into .bench_build/ at
the root of the checkout, with the Go build cache and temporary files kept
there too, then runs it as one child process that measures only this
workload. The child's standard output is relayed; its last line is the JSON
result. The exit code is the child's, or 1 if the build fails.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT = 850  # seconds; only a first build in a fresh checkout is slow
RUN_TIMEOUT = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "go-cache"),
        GOTMPDIR=os.path.join(build, "go-tmp"),
        GOPATH=os.path.join(build, "go-path"),
        GOENV="off",
        GOFLAGS="-buildvcs=false",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
        GOMAXPROCS=str(os.cpu_count() or 1),
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=here, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    spans = os.path.join(build, "spans", f"{args.workload}-seed{args.seed}.json")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spans", spans,
    ]
    try:
        res = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                             stderr=sys.stderr, timeout=RUN_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        return 1
    if res.returncode != 0:
        return res.returncode
    sys.stdout.write(res.stdout.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
