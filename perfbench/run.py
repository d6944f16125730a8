#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 20 --trace 0

Every argument is passed to the program (see main.go). The Go build cache,
the binary, the data directories and the span files all live under
.bench_build/ in the checkout, so nothing is read or written outside it.
The last line of standard output is the run's JSON result; the program
exits non-zero, printing no result, if the build or any run fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench-bin")
RUN_TIMEOUT = 170  # seconds; a run must end well within 180


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",  # never fetch a toolchain
        GOPROXY="off",  # the module needs no downloads
        GOFLAGS="",
        GOWORK="off",
    )
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=BENCH,
        env=go_env(),
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return proc.returncode == 0


def main(args):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([BINARY] + args, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
