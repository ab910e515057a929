#!/usr/bin/env python3
"""Build the DiCE benchmark from source and run one workload.

    python3 dicebench/run.py --workload live|explore|panel|fleet \
        --seed N --seconds S --trace 0|1

Run from the root of the repository. The benchmark is built with dune
into _build/ (the shared dune cache is disabled, so nothing is written
outside the tree), then run; its last line of output is the JSON
result. The exit code is the benchmark's: 0 when every correctness
check passed, 1 when one failed, 2 when the build or the arguments
failed.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./dicebench/main.exe"


def dune():
    found = shutil.which("dune")
    if found:
        return [found]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    cmd = dune()
    if cmd is None:
        print("dicebench: dune is not installed", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        cmd + ["build", "--root", ROOT, "--display", "quiet", TARGET],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("dicebench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, "_build", "default", "dicebench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
