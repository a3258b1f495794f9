#!/usr/bin/env python3
"""logforge benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload oracle_score --seed 7 --seconds 54 --trace 0

Run from the root of a source checkout.  The package is imported from
`src/`, never from an installed copy, and the run fails (non-zero exit, no
result) when `src/logforge` is not there.

The run repeats rounds of whole iterations of the workload (see
`workloads.py`) for about `--seconds`, at least once, and reports each
stage's mean time over them.  Set-up (imports, fixture and grid, in a fresh
interpreter) is timed three times after every round; `setup_s` is the
median.  With `--trace 0` every iteration is untraced and the end-to-end
metrics are reported.  With `--trace 1` each round holds one untraced and
one traced iteration, in alternating order, and the run holds two rounds at
least: the per-layer metrics come from the traced iterations, and
`trace.overhead_frac` and `trace.overhead_spread` are the mean and range of
the per-round overheads.

Every iteration's outputs are checked (cell status, replay, log length,
distances in [0, 1], counters repeating between iterations, the traced
firing count matching the manifest, and for seeds recorded in
`reference.json` the sha256 of every trace and log and both mean
distances).  A failed check is counted, never raised.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The full record (every iteration, the counters, the failures, and the
Python, numpy, git and nproc stamp) goes to standard error as one JSON line
and, with `--record FILE`, to that file.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SCRIPTS = os.path.join(ROOT, "scripts")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

# set-up is timed after every round, so that its median, like the stage
# means, spans the whole run
SETUP_REPS_PER_ROUND = 3
STAGES = ("dataset", "readback", "score_near", "score_strawman")
# one fresh interpreter per set-up: imports, then the fixture's model and grid
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:4]
import workloads
seed = None if sys.argv[5] == "-" else int(sys.argv[5])
workloads.build(workloads.SHAPES[sys.argv[4]], seed)
print(time.perf_counter() - t0)
"""


def metric_units(kind: str) -> dict:
    """Name -> unit of the `end_to_end` or `per_layer` metrics of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def import_package():
    if not os.path.isfile(os.path.join(SRC, "logforge", "__init__.py")):
        sys.exit(f"perfbench: no package source at {SRC}/logforge")
    sys.path[:0] = [SRC, SCRIPTS, BENCH_DIR]
    import logforge
    if not os.path.abspath(logforge.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported logforge from {logforge.__file__}, not from {SRC}")


def stamp() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": git_sha(), "nproc": os.cpu_count(),
            "machine": platform.machine()}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload: str, seed: int | None) -> list[float]:
    times = []
    for _ in range(SETUP_REPS_PER_ROUND):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, SRC, SCRIPTS, BENCH_DIR, workload,
             "-" if seed is None else str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def load_reference(workload: str, master_seed: int) -> dict | None:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            refs = json.load(fh)
    except FileNotFoundError:
        return None
    return refs.get(workload, {}).get(str(master_seed))


def check_iteration(result: dict, first: dict | None, reference: dict | None, checks) -> None:
    if first is not None:
        checks.check(result["counters"] == first["counters"],
                     f"counters changed between iterations: {result['counters']} "
                     f"!= {first['counters']}")
    if reference is not None:
        for key, want in reference.items():
            got = result["reference"].get(key)
            checks.check(got == want, f"reference {key}: {got!r} != {want!r}")


# per-layer units of counts, which must repeat exactly between traced iterations
EXACT_UNITS = ("count", "bytes")


def layer_metrics(tracer, result: dict, checks) -> dict:
    m = tracer.metrics(result["seconds"])
    counters = result["counters"]
    # the tracer tells firings from clock advances by what `step` returns:
    # it must count every firing the manifest records
    if "logforge.simulate.step" not in tracer.absent:
        checks.check(m["simulate.firings"] == counters["simulate.firings"],
                     f"traced simulate.firings {m['simulate.firings']} != "
                     f"{counters['simulate.firings']} in the manifest")
    m.update({k: v for k, v in counters.items() if k != "simulate.firings"})
    written = counters["simulate.firings"] + 2 * counters["dataset.events"]
    read = counters["simulate.firings"] + counters["dataset.events"]
    m["logio.us_per_record_write"] = (
        1e6 * (m["logio.write_trace_s"] + m["logio.write_observed_s"]) / written
        if written else 0.0)
    m["logio.us_per_record_read"] = (
        1e6 * (m["logio.read_trace_s"] + m["logio.read_observed_s"]) / read
        if read else 0.0)
    return m


def round_order(trace: bool, round_no: int) -> tuple:
    """Untraced-or-traced order of one round: traced runs alternate which side
    goes first, so that a drift in host speed does not bias the overhead."""
    if not trace:
        return (False,)
    return (False, True) if round_no % 2 == 0 else (True, False)


def run(workload: str, seed: int | None, seconds: float, trace: bool,
        shapes=None, corrupt=None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full record).

    `shapes` replaces the workload sizes (the smoke test runs toy sizes);
    `corrupt` is passed on to `workloads.iterate`.
    """
    import workloads
    from tracer import Tracer

    shape = (shapes or workloads.SHAPES)[workload]
    setup_times = []
    net, grid = workloads.build(shape, seed)
    reference = (load_reference(workload, grid.master_seed)
                 if shape == workloads.SHAPES[workload] else None)

    checks = workloads.Checks()
    untraced, traced, layers, absent, overheads = [], [], [], [], []
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    t_start = time.perf_counter()
    try:
        for round_no in itertools.count():
            t_round = time.perf_counter()
            walls = {}
            for traced_now in round_order(trace, round_no):
                gc.collect()
                tracer = Tracer() if traced_now else None
                try:
                    with tracer or contextlib.nullcontext():
                        result = workloads.iterate(net, grid, work, checks,
                                                   on_stage=tracer and tracer.on_stage,
                                                   corrupt=corrupt)
                except Exception as e:  # noqa: BLE001 - counted, the run goes on
                    checks.fail(f"iteration: {type(e).__name__}: {e}")
                    continue
                done = untraced + traced
                check_iteration(result, done[0] if done else None, reference, checks)
                walls[traced_now] = sum(result["seconds"][stage] for stage in STAGES)
                if tracer is not None:
                    traced.append(result)
                    layers.append(layer_metrics(tracer, result, checks))
                    absent = tracer.absent
                else:
                    untraced.append(result)
            if len(walls) == 2 and walls[False]:
                overheads.append(walls[True] / walls[False] - 1)
            setup_times += measure_setup(workload, seed)
            # start another round only if it would end less than half a round
            # past the measuring time, so that runs last `seconds` on average;
            # a traced run holds two rounds at least, one in each order
            now = time.perf_counter()
            if ((now - t_start) + (now - t_round) / 2 >= seconds
                    and (not trace or round_no >= 1)):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        units = metric_units("per_layer")
        metrics = {}
        for name, unit in units.items():
            if name.startswith("trace.overhead") or name == "failed_frac":
                continue
            values = [m[name] for m in layers]
            if unit in EXACT_UNITS:
                checks.check(len(set(values)) <= 1,
                             f"{name} differs between traced iterations: {values}")
                metrics[name] = values[0] if values else 0
            else:
                metrics[name] = statistics.fmean(values) if values else 0.0
        metrics["trace.overhead_frac"] = statistics.fmean(overheads) if overheads else 0.0
        metrics["trace.overhead_spread"] = max(overheads) - min(overheads) if overheads else 0.0
    else:
        units = metric_units("end_to_end")
        metrics = end_to_end(untraced, setup_times)
    failed = len(checks.failures)
    attempted = max(checks.attempted, 1)
    if trace:
        metrics["failed_frac"] = failed / attempted

    first = (untraced or traced or [{"counters": {}, "reference": {}}])[0]
    record = {
        "workload": workload, "seed": grid.master_seed, "seconds": seconds,
        "trace": int(trace), "stamp": stamp(), "setup_s": setup_times,
        "iterations": [r["seconds"] for r in untraced],
        "traced_iterations": [r["seconds"] for r in traced],
        "trace_overheads": overheads,
        "counters": first["counters"], "reference": first["reference"],
        "absent": absent, "failures": checks.failures[:50], "metrics": metrics,
    }
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    return line, record


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def mean_seconds(results: list[dict], stage: str) -> float:
    """Mean time of `stage` over the iterations of a run."""
    return statistics.fmean(r["seconds"][stage] for r in results) if results else 0.0


def end_to_end(results: list[dict], setup_times: list[float]) -> dict:
    """End-to-end metrics of an untraced run.

    A stage's time is its mean over the run's iterations: on a shared host
    the speed can move in phases of tens of seconds, and the mean weighs every
    phase a run saw, where the median of four or five iterations jumps
    between them.
    """
    firings = results[0]["counters"]["simulate.firings"] if results else 0
    dataset_s = mean_seconds(results, "dataset")
    return {
        "setup_s": median(setup_times),
        "dataset_s": dataset_s,
        "firings_per_s": firings / dataset_s if dataset_s else 0.0,
        "readback_s": mean_seconds(results, "readback"),
        "score_near_s": mean_seconds(results, "score_near"),
        "score_strawman_s": mean_seconds(results, "score_strawman"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed of the grid (default: the fixture's pinned seed)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="also write the full record here")
    args = parser.parse_args(argv)

    import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
