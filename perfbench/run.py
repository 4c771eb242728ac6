#!/usr/bin/env python3
"""Build the khaos-perfbench binary from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload diff|overhead|fuzz --seed N \
        --seconds S --trace 0|1

The binary is built with CMake into .bench_build/ at the repository root
(the first run builds the library, later runs only check that the build is
up to date). Build output goes to stderr, so the last line of stdout is the
binary's JSON result. Every argument is passed to the binary, which
validates them; see `khaos-perfbench --help`. Traced runs write their
Chrome trace files to .bench_build/traces/.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "khaos-perfbench")


def build():
    """Configure (once) and build the binary; True on success."""
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "khaos-perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    cmd = [EXE] + sys.argv[1:] + [
        "--trace-dir", os.path.join(BUILD, "traces"),
        "--reference-dir", os.path.join(HERE, "reference"),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
