#!/usr/bin/env python3
"""Self-test of the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/test_bench.py [--workloads a,b] [--seconds 1]

Checks, per workload:
  1. two invocations at the same seed print byte-identical [sim] metric
     lines (end-to-end and per-layer) and the same failed count;
  2. the held-out seed 7 gives failed = 0 and correct = true;
and once:
  3. run.py exits non-zero without printing a result in a directory that
     holds only BENCHMARK.json and perfbench/.
Exits 0 when every check passes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1
HELD_OUT_SEED = 7


def invoke(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)


def sim_lines(stdout):
    return [l for l in stdout.splitlines() if l.rstrip().endswith("[sim]")]


def check(ok, what, failures):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", default="1")
    args = ap.parse_args()
    failures = []
    for wl in args.workloads.split(","):
        for trace in (0, 1):
            a = invoke(ROOT, wl, SEED, args.seconds, trace)
            b = invoke(ROOT, wl, SEED, args.seconds, trace)
            if a.returncode != 0 or b.returncode != 0:
                check(False, f"{wl} trace {trace}: both invocations exit 0", failures)
                sys.stderr.write(a.stderr + b.stderr)
                continue
            ra = json.loads(a.stdout.splitlines()[-1])
            rb = json.loads(b.stdout.splitlines()[-1])
            la, lb = sim_lines(a.stdout), sim_lines(b.stdout)
            check(la == lb and len(la) > 0 and ra["failed"] == rb["failed"],
                  f"{wl} trace {trace}: {len(la)} sim metrics and failed identical at seed {SEED}",
                  failures)
        h = invoke(ROOT, wl, HELD_OUT_SEED, args.seconds, 0)
        rh = json.loads(h.stdout.splitlines()[-1]) if h.returncode == 0 else {}
        check(rh.get("failed") == 0 and rh.get("correct") is True,
              f"{wl}: failed = 0 at held-out seed {HELD_OUT_SEED}", failures)
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    wl = spec["workloads"][0]["name"]
    r = invoke(bare, wl, SEED, args.seconds, 0)
    check(r.returncode != 0 and r.stdout.strip() == "",
          "exits non-zero without a result outside a checkout", failures)
    shutil.rmtree(bare, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
