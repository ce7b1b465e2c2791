#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe from the checkout's sources with dune, then
runs it with the same arguments.  Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result.  Exits non-zero, without a
result, when the checkout holds no project to build or the build fails.
See perfbench/README.md for the workloads and metrics.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout or termination kill it and wait for it."""
    p = subprocess.Popen(cmd, cwd=ROOT, **kw)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()


def main(argv):
    # Turn SIGTERM into an exception, so run() stops its child on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for need in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            return fail(f"{need} not found under {ROOT}: not a checkout of the project")
    # The shared dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        return fail("build failed" if code is not None else "build timed out")
    sys.stdout.flush()
    code = run([EXE] + argv, RUN_TIMEOUT_S)
    if code is None:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
