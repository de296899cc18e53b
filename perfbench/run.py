#!/usr/bin/env python3
"""Build and run the protocol benchmark.

    python3 perfbench/run.py --workload world|prove|soak|fanin \
        --seed N --seconds S --trace 0|1 [--delay LAYER]

Run from the repository root. Builds perfbench/bench.exe with dune
(release profile; into $CARGO_TARGET_DIR/dune when that is set, else
_build) and runs it with the same arguments. The last line of standard
output is the result object. See perfbench/README.md.
"""
import os
import subprocess
import sys

# The benchmark must finish within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root: no dune-project or lib/ here",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR")
    build_dir = os.path.abspath(os.path.join(target, "dune") if target else "_build")
    os.makedirs(os.path.dirname(build_dir), exist_ok=True)
    build = ["dune", "build", "--root", ".", "--build-dir", build_dir,
             "--profile", "release", "-j", "2", "./perfbench/bench.exe"]
    if subprocess.run(build, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    try:
        done = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
