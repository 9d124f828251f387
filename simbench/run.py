#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Usage, from the root of the repository:

    python3 simbench/run.py --workload mobile-dense --seed 1 --seconds 20 --trace 0

Builds `simbench` (a package of its own, depending on the repository's
crates by path) in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), prints the host facts, then runs the binary with the
given arguments. The binary's last line of standard output is the JSON
result. Exits non-zero, printing no result, if the build fails.
"""

import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longest a run may take once built; a run must end within 180 s.
RUN_TIMEOUT_S = 170


def capture(cmd, cwd=None):
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_commit():
    # Only the repository this benchmark lives in counts, not one that
    # happens to enclose it.
    top = capture(["git", "rev-parse", "--show-toplevel"], cwd=ROOT)
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown"
    return capture(["git", "rev-parse", "HEAD"], cwd=ROOT) or "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("simbench: build failed", file=sys.stderr)
        return 2
    host = {
        "nproc": os.cpu_count(),
        "rustc": capture(["rustc", "-V"]) or "unknown",
        "profile": "release",
        "commit": git_commit(),
        "machine": platform.machine(),
    }
    print("host " + json.dumps(host, sort_keys=True), flush=True)
    exe = os.path.join(target, "release", "simbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("simbench: run timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
