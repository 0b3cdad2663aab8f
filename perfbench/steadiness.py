#!/usr/bin/env python3
"""Record how steady the benchmark is: run it once per seed and summarize.

    python3 perfbench/steadiness.py --workloads serve_mix,batch_large,agents_torus \\
        --seeds 101-110 --out perfbench/evidence/pinned.json
    python3 perfbench/steadiness.py --workloads serve_mix,batch_large --seeds 101-110 \\
        --no-pin --out perfbench/evidence/unpinned.json

Runs `run.py` from the repository root for every workload and seed, one
run at a time, and writes every run's full record plus, per workload and
metric, the median, the quartiles (Python's statistics.quantiles, n=4)
and the interquartile range as a share of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med,
            "min": min(values), "max": max(values)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=seeds_arg, required=True)
    ap.add_argument("--seconds", default="35")
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--no-pin", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    runs, summary = [], {}
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
            if args.no_pin:
                cmd.append("--no-pin")
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            record = json.loads(done.stdout.strip().splitlines()[-2])
            runs.append(record)
            for name, m in record["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, record["correct"], record["failed"],
                  {k: round(v["value"], 4) for k, v in record["metrics"].items()}, flush=True)
        summary[workload] = {name: summarize(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            print(f"  {workload}/{name}: median {s['median']:.6g} "
                  f"iqr/median {s.get('iqr_share', float('nan')):.4f}")

    out = {"schema": "pp-perfbench-steadiness/v1", "seconds": float(args.seconds),
           "trace": int(args.trace), "pinned": not args.no_pin, "seeds": args.seeds,
           "summary": summary, "runs": runs}
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
