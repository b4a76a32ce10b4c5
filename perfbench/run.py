#!/usr/bin/env python3
"""Build and run the swm benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/swmbench.exe from
source with dune, in its own build directory (.bench_build) so that a
developer's _build is left alone, then runs it.  The benchmark's output,
ending in one JSON line, and its exit code pass straight through.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/swmbench.exe"
# A run measures for at most a minute; set-up, warm-up and probes add a few
# seconds.  Past this the run is stuck, not slow.
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "run.py: run from the root of an swm checkout "
            "(dune-project and lib/ not found)\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--display", "quiet", TARGET],
        capture_output=True, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        sys.stderr.write("run.py: build failed\n")
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "swmbench.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: the benchmark did not finish in %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
