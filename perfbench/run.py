#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 20 --trace 0 [--rate 1000]

Builds the perfbench Go program from source into $CARGO_TARGET_DIR
(default .bench_build), keeping every Go cache and temporary file there as
well, then runs it with the given arguments. The program's last line of
standard output is the result object. The oracle keeps its answers for each
build in the same directory, so a later run of one build checks programs an
earlier run served without recomputing their references. Exits non-zero
when the build or the run fails.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    gotmp = os.path.join(build, "tmp")
    os.makedirs(gotmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "mod"),
        GOTMPDIR=gotmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-buildvcs=false",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("run.py: building perfbench failed", file=sys.stderr)
        return 1
    args = [binary, "--spans-dir", os.path.join(build, "spans"), "--cache-dir", os.path.join(build, "oracle")] + sys.argv[1:]
    proc = subprocess.Popen(args, env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
