#!/usr/bin/env python3
"""Build the benchmark from source with dune, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload spec-grid --seed 1 --seconds 20 --trace 0

Every argument is passed to perfbench/main.exe (see perfbench/README.md).
Build output goes to standard error, so the last line of standard output
is the benchmark's JSON result.  The exit code is the build's when the
build fails, and the benchmark's otherwise.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    # The shared dune cache lives outside the checkout; keep every build
    # artifact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
