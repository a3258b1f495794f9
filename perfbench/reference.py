#!/usr/bin/env python3
"""Record the reference outputs that run.py checks: perfbench/reference.json.

    python3 perfbench/reference.py --seeds 0-10 [--workload oracle_score ...]

For every workload given (default: all) and master seed (plus the fixture's
pinned seed) it runs one iteration and stores the sha256 over every
trace.gt.jsonl and log.jsonl and both mean candidate distances.  Entries of
other workloads are kept.  Record only at a commit whose outputs
are known to be right: a change that keeps outputs byte-identical (same
seeds, same RNG draw order) never needs a new reference.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import run as bench
from trajectory import seeds_arg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-10"))
    parser.add_argument("--workload", action="append", dest="workloads")
    args = parser.parse_args()

    bench.import_package()
    import workloads

    try:
        with open(bench.REFERENCE, encoding="utf-8") as fh:
            refs = json.load(fh)
    except FileNotFoundError:
        refs = {}
    os.makedirs(bench.WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=bench.WORK_ROOT)
    try:
        for workload in args.workloads or workloads.WORKLOADS:
            shape = workloads.SHAPES[workload]
            refs[workload] = {}
            for seed in [None] + args.seeds:
                net, grid = workloads.build(shape, seed)
                checks = workloads.Checks()
                result = workloads.iterate(net, grid, work, checks)
                if checks.failures:
                    sys.exit(f"{workload} seed {grid.master_seed}: {checks.failures[:5]}")
                refs[workload][str(grid.master_seed)] = result["reference"]
                print(workload, grid.master_seed, result["reference"], file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(bench.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
