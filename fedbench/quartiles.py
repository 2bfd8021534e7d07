#!/usr/bin/env python3
"""Runs the federation benchmark once per seed and reports, per metric,
the median and quartiles across the runs.

    python3 fedbench/quartiles.py --workload central-bulk --seeds 1-10 --seconds 20

Run it from the repository root. The spread column is the distance
between the first and third quartile as a share of the median, the
figure a metric's bound in BENCHMARK.json is compared with. With --json
the per-metric figures, and each run's value in seed order, are also
written to a file.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json", help="write the figures to this file")
    args = ap.parse_args()

    values = {}
    units = {}
    for seed in seed_list(args.seeds):
        cmd = ["bash", "fedbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        res = json.loads(lines[-1])
        print(f"seed {seed}: attempted {res['attempted']}, failed {res['failed']}", file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    report = {}
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], None, xs[0])
        spread = (q3 - q1) / med if med else 0.0
        report[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(xs),
                        "values": xs}
        print(f"{name:36s} {med:14.6g} {units[name]:6s} q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:.3f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seeds": args.seeds, "seconds": float(args.seconds),
                       "trace": int(args.trace), "metrics": report}, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
