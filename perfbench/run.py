#!/usr/bin/env python3
"""Build the store's benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build (dune, into _build) goes to
stderr; the benchmark's report goes to stdout, ending in one JSON line.
The exit code is the benchmark's, or non-zero when the tree cannot be
built.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ["./perfbench/bench.exe", "./perfbench/server.exe"]
# A cold build takes seconds; this only stops a wedged one.
BUILD_TIMEOUT_S = 800
# The benchmark gives up on its own after 160 s; this is the backstop.
RUN_TIMEOUT_S = 175


def main():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"run.py: {needed} not found: not a checkout of the store")
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("run.py: dune not found on PATH")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--cache=disabled", *TARGETS],
            cwd=ROOT,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.exit("run.py: build timed out")
    if build.returncode != 0:
        sys.exit(f"run.py: build failed ({build.returncode})")
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    # A session of its own, so a timeout takes the spawned servers too.
    proc = subprocess.Popen([exe, *sys.argv[1:]], cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("run.py: benchmark killed")
    sys.exit(code)


if __name__ == "__main__":
    main()
