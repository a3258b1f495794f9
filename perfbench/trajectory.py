#!/usr/bin/env python3
"""Record one entry of the bench trajectory: perfbench/trajectory/BENCH_<label>.json.

    python3 perfbench/trajectory.py --label 0 --seeds 1-10

For every workload it makes one untraced run per seed and one traced run at
the first seed, one run at a time, each in its own process.  The entry holds
every run's record, and per end-to-end metric the median, the quartiles and
the spread (interquartile distance over the median) across seeds, next to the
metric's bound.  A later performance change commits its own entry from the
same command, on the same machine.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    fd, path = tempfile.mkstemp(prefix="record-", suffix=".json", dir=work)
    os.close(fd)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--record", path],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    finally:
        os.unlink(path)
    record["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return record


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None, "n": len(values)}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = parser.parse_args()

    entry = {"label": args.label, "run_seconds": spec["run_seconds"],
             "seeds": args.seeds, "workloads": {}}
    for workload in names:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"], 0))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1]['result'])}", file=sys.stderr)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs]
            summary[metric["name"]] = {**summarize(values), "unit": metric["unit"],
                                       "bound": metric["bound"]}
        entry["workloads"][workload] = {"end_to_end": summary, "runs": runs}
        entry["workloads"][workload]["traced"] = run_once(
            workload, args.seeds[0], spec["run_seconds"], 1)
        for name, s in summary.items():
            print(f"{workload:14s} {name:18s} median {s['median']:12.5g} {s['unit']:5s} "
                  f"spread {s['spread']:.4f} (bound {s['bound']})")
    os.makedirs(os.path.join(BENCH_DIR, "trajectory"), exist_ok=True)
    out = os.path.join(BENCH_DIR, "trajectory", f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
