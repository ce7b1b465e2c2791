#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--trace 0|1] [--record FILE]

For every workload it runs perfbench/run.py once per seed and prints, for
each metric, the median, the quartiles (statistics.quantiles, n=4) and the
spread: the inter-quartile distance as a share of the median.  Metrics
whose spread exceeds a third of their bound in BENCHMARK.json are flagged.
--record writes the summary, with nproc and the OCaml version, as a JSON
trajectory point.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# The human-readable report lines: "<workload> <metric> <value> <unit> [sim|host]".
LINE = re.compile(r"^(\S+)\s+(\S+)\s+(-?[0-9.eE+-]+|nan)\s+(\S+)\s+\[(sim|host)\]$")


def run_once(spec, workload, seed, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = {}
    for line in lines[:-1]:
        mt = LINE.match(line.strip())
        if mt:
            report[mt.group(2)] = (float(mt.group(3)), mt.group(4), mt.group(5))
    return result, report


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def ocaml_version():
    try:
        return subprocess.run(["ocaml", "-vnum"], capture_output=True, text=True).stdout.strip()
    except OSError:
        return "unknown"


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--record")
    args = ap.parse_args()
    bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
    summary = {}
    ok = True
    for wl in args.workloads.split(","):
        rows = {}
        failed = 0
        elapsed = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            t0 = time.monotonic()
            result, report = run_once(spec, wl, seed, args.trace)
            elapsed.append(time.monotonic() - t0)
            failed += result["failed"]
            ok = ok and result["correct"]
            for name, (value, unit, clock) in report.items():
                rows.setdefault(name, {"unit": unit, "clock": clock, "values": []})["values"].append(value)
            print(f"{wl} seed {seed}: correct={result['correct']} failed={result['failed']} "
                  f"in {elapsed[-1]:.1f} s", file=sys.stderr)
        summary[wl] = {"failed": failed, "max_run_elapsed_s": max(elapsed), "metrics": {}}
        for name, row in rows.items():
            s = summarise(row["values"])
            s.update(unit=row["unit"], clock=row["clock"])
            summary[wl]["metrics"][name] = s
            flag = ""
            if name in bounds and name != "setup_s" and s["spread"] > bounds[name] / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"{wl:14} {name:34} median {s['median']:<14.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {row['unit']} [{row['clock']}]{flag}")
    if args.record:
        point = {
            "nproc": os.cpu_count(),
            "ocaml": ocaml_version(),
            "run_seconds": spec["run_seconds"],
            "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
            "trace": args.trace,
            "workloads": summary,
        }
        with open(args.record, "w") as f:
            json.dump(point, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
