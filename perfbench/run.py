#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it with the given arguments.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build output goes to stderr; stdout is the benchmark's own, ending in
one JSON line. The exit code is the build's if it fails, else the
benchmark's. Builds into $CARGO_TARGET_DIR when set, else perfbench/target.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The benchmark itself finishes well inside this; the cap only guards
# against a hung run.
RUN_TIMEOUT_S = 175


def main() -> int:
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        cwd=ROOT, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    target = ROOT / os.environ.get("CARGO_TARGET_DIR", "perfbench/target")
    binary = target / "release" / "perfbench"
    try:
        return subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
