#!/usr/bin/env python3
"""Traced-run report: per-layer self time and work counters per workload,
plus the tracing overhead against the untraced run.

    python3 perfbench/report.py [--seed N] [--seconds S] [workload ...]

Runs each workload twice through `perfbench/run.py` with the same seed,
once untraced and once traced, and prints a Markdown table per workload:
the traced run's per-layer metrics (layers the workload leaves idle are
omitted) and the difference between the traced and untraced op p50, which
is the tracing overhead.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ingest", "paper_q", "serve_rw"]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    for w in args.workloads:
        plain = run(w, args.seed, args.seconds, 0)
        traced = run(w, args.seed, args.seconds, 1)
        print(f"\n### {w} (seed {args.seed}, {args.seconds} s)\n")
        print("| metric | value | unit |\n|---|---:|---|")
        for name, m in traced.items():
            if m["value"] != 0 or name in ("serve.shed", "cache.hits"):
                print(f"| {name} | {m['value']:.4g} | {m['unit']} |")
        base = plain["op_p50_ms"]["value"]
        with_trace = traced["trace.op_p50_ms"]["value"]
        print(f"| op_p50_ms untraced | {base:.4g} | ms |")
        print(f"| tracing overhead (traced - untraced op p50) | "
              f"{with_trace - base:+.4g} ({(with_trace - base) / base * 100:+.2f}%) | ms |")


if __name__ == "__main__":
    main()
