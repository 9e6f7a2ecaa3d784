#!/usr/bin/env python3
"""Build tbft_benchmark from source, then run it with the given arguments.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build directory is $CARGO_TARGET_DIR,
default .bench_build. Build output goes to stderr, so the
benchmark's last line on stdout stays its JSON result. Exits non-zero without
a result when the build fails, e.g. outside a full checkout.
"""
import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    source = Path(__file__).resolve().parent
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = [["cmake", "--build", str(build), "-j4", "--target", "tbft_benchmark"]]
    if not (build / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(source), "-B", str(build),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(step), file=sys.stderr)
            return 1
    return subprocess.run([str(build / "tbft_benchmark"), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
