#!/usr/bin/env python3
"""Build and run the pp-perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 15 --trace 0

Builds `perfbench/` (its own Cargo package) into $CARGO_TARGET_DIR, or
`.bench_build` when that is unset, then runs the binary pinned to one
CPU. Prints the binary's full record with host provenance added, then,
as the last line, the result: {"correct", "attempted", "failed",
"metrics"}. Exits non-zero without a result when the build or the run
fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# What the program is built from, for the source digest.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", "__pycache__"}


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Cargo's output goes to stderr: stdout carries only the result.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=840)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target_dir, "release", "pp-perfbench")


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, subdirs, names in os.walk(path):
                subdirs[:] = sorted(s for s in subdirs if s not in SKIP_DIRS)
                files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    """HEAD of the checkout, or None when the checkout is not a git tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--no-pin", action="store_true",
                    help="leave the process unpinned (for the pinning comparison only)")
    args = ap.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    binary = build(target_dir)

    # One CPU for the whole process: client, server worker and engine
    # share it, so they never wake each other across CPUs.
    cpu = None if args.no_pin else max(os.sched_getaffinity(0))
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    done = subprocess.run(cmd, preexec_fn=pin, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: run failed with exit code {done.returncode}")
    record = json.loads(lines[-1])
    record["provenance"] = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "pinned_cpu": cpu,
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "workload_seed": args.seed,
    }
    print(json.dumps(record))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
