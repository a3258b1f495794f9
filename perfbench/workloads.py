"""The benchmark's workloads and the pipeline each of them runs.

Every workload runs a user's whole path through the public entry points:
fixture -> `dataset.generate` (a finished dataset directory) -> read back
(`oracle align` + `oracle report` + replay check on every cell) -> score two
candidate alignments per cell against the ground truth over every object, as
`oracle score` and `scripts/score_alignments.py` do.  The workloads differ in
shape, so that each layer has a workload that stresses it and one that does
not:

- `package_grid`: the 12-cell paired package-delivery grid with its config
  axis repeated 40 times (480 tiny cells).  Per-cell fixed cost dominates:
  model conversion, two `apply_sequence` calls, digests, simulator set-up and
  five small atomic writes per cell.  Scoring is cheap here.
- `oracle_score`: one energy cell at 500 contracts.  The agents carry about
  1.3k moves each, so the per-object edit distance of `move_distance`
  dominates; its dataset stage is one long simulation with many concurrent
  contracts.
- `energy_cell`: one energy cell at 2000 contracts (20,548 firings at the
  pinned seed).  It is not listed in BENCHMARK.json: scoring it over every
  object takes over a minute per candidate today, longer than a run.  Run it
  by hand with `--workload energy_cell` to measure the simulator at full
  size, or `move_distance` on the paper's own dataset.

The candidates stand in for external conformance checkers and are built by
the benchmark, outside every timed region: `near` is the ground truth with
about 1% of moves re-kinded (seeded), `strawman` is the "echo" aligner of
`scripts/score_alignments.py`, which turns every observed event into a
synchronous move.

Only module attributes are called (`logio.read_trace`, `oracle.gt_alignment`,
...), so that a tracer rebinding them sees every call.
"""
from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass

from logforge import dataset, fixtures, logio, oracle, simulate
from score_alignments import strawman

WORKLOADS = ("energy_cell", "package_grid", "oracle_score")

CANDIDATES = ("near", "strawman")
NEAR_REKIND = 0.01
# kind swaps that keep the set of covered observed events unchanged
_REKIND = {"synchronous": "log", "log": "synchronous",
           "model": "silent_model", "silent_model": "model"}


@dataclass(frozen=True)
class Shape:
    fixture: str            # "energy_contract" or "package_delivery"
    contracts: int = 0      # energy only
    repeat: int = 1         # package only: how often the config axis repeats


SHAPES = {
    "energy_cell": Shape("energy_contract", contracts=2000),
    "package_grid": Shape("package_delivery", repeat=40),
    "oracle_score": Shape("energy_contract", contracts=500),
}

# the same workloads at toy size, for the benchmark's own smoke test
TOY_SHAPES = {
    "energy_cell": dataclasses.replace(SHAPES["energy_cell"], contracts=20),
    "package_grid": dataclasses.replace(SHAPES["package_grid"], repeat=1),
    "oracle_score": dataclasses.replace(SHAPES["oracle_score"], contracts=20),
}


def build(shape: Shape, seed: int | None):
    """The base model and grid of a workload; `seed` becomes the master seed
    (None keeps the fixture's pinned seed)."""
    if shape.fixture == "energy_contract":
        net, grid = fixtures.energy_contract_fixture(shape.contracts)
    else:
        net, grid = fixtures.package_delivery_fixture()
        grid.sim_configs = grid.sim_configs * shape.repeat
    if seed is not None:
        grid.master_seed = seed
    return net, grid


class Checks:
    """Output checks of one run: each is counted, a failure never raises."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def fail(self, what: str) -> None:
        self.check(False, what)


@dataclass
class CellResult:
    cell_id: str
    gt_path: str
    gt: oracle.GtAlignment


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def outputs_digest(out: str, manifest) -> str:
    """One sha256 over the sha256 of every trace.gt.jsonl and log.jsonl."""
    lines = []
    for entry in manifest.cells:
        if entry.get("status") != "ok":
            continue
        for key in ("trace", "log_jsonl"):
            rel = entry["paths"][key]
            lines.append(f"{rel} {sha256_file(os.path.join(out, rel))}\n")
    return hashlib.sha256("".join(sorted(lines)).encode()).hexdigest()


def bytes_written(out: str) -> int:
    total = 0
    for root, _, files in os.walk(out):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def produce(net, grid, out: str, checks: Checks):
    """`logforge dataset`; failed cells are kept in the manifest and counted."""
    manifest = dataset.generate(net, grid, out, jobs=1, keep_going=True)
    for entry in manifest.cells:
        checks.check(entry.get("status") == "ok",
                     f"{entry['cell_id']}: status {entry.get('status')}: {entry.get('error', '')}")
    return manifest


def read_back(out: str, manifest, checks: Checks) -> list[CellResult]:
    """`oracle align --net` + `oracle report` + replay check, per cell."""
    m0_path = os.path.join(out, "m0.json")
    cells = []
    for entry in manifest.cells:
        if entry.get("status") != "ok":
            continue
        cid, paths = entry["cell_id"], entry["paths"]
        gt_path = os.path.join(out, "cells", cid, "gt.alignment.jsonl")
        try:
            m0 = logio.read_model(m0_path)
            ml = logio.read_model(os.path.join(out, paths["model"]))
            trace = logio.read_trace(os.path.join(out, paths["trace"]), net=ml)
            log = logio.read_observed_jsonl(os.path.join(out, paths["log_jsonl"]))
            gt = oracle.gt_alignment(m0, trace, log)
            oracle.write_alignment(gt, gt_path)
            oracle.deviation_report(trace)
            replays = simulate.trace_replays(ml, trace)
        except Exception as e:  # noqa: BLE001 - a broken cell is a counted failure
            checks.fail(f"{cid}: read back: {type(e).__name__}: {e}")
            continue
        checks.check(replays, f"{cid}: trace does not replay")
        checks.check(len(log.events) == len(trace.labeled_records()),
                     f"{cid}: {len(log.events)} events for "
                     f"{len(trace.labeled_records())} labeled records")
        cells.append(CellResult(cid, gt_path, gt))
    return cells


def _alignment(per_object: dict) -> oracle.GtAlignment:
    return oracle.GtAlignment(system=tuple(m for ms in per_object.values() for m in ms),
                              per_object=per_object)


def near(gt: oracle.GtAlignment, rng: random.Random) -> oracle.GtAlignment:
    """The ground truth with about 1% of moves re-kinded."""
    return _alignment({obj: tuple(dataclasses.replace(m, kind=_REKIND[m.kind])
                                  if rng.random() < NEAR_REKIND else m for m in moves)
                       for obj, moves in gt.per_object.items()})


def dp_cells(candidate: oracle.GtAlignment, gt: oracle.GtAlignment) -> tuple[int, int]:
    """(moves scored, sum of n*m over objects) of one `move_distance` call."""
    moves = cells = 0
    for obj in set(candidate.per_object) | set(gt.per_object):
        n = len(candidate.per_object.get(obj, ()))
        m = len(gt.per_object.get(obj, ()))
        moves += n + m
        cells += n * m
    return moves, cells


def write_candidates(cells: list[CellResult], seed, counters: dict) -> list[dict]:
    """Write the near and strawman candidates of every cell; count their work."""
    jobs = []
    for cell in cells:
        rng = random.Random(f"{seed}:{cell.cell_id}")
        paths = {}
        for kind, cand in (("near", near(cell.gt, rng)),
                           ("strawman", strawman(cell.gt, "synchronous"))):
            paths[kind] = os.path.join(os.path.dirname(cell.gt_path), f"{kind}.alignment.jsonl")
            oracle.write_alignment(cand, paths[kind])
            moves, cells_nm = dp_cells(cand, cell.gt)
            counters["oracle.moves_scored"] += moves
            counters["oracle.dp_cells"] += cells_nm
        jobs.append({"cell_id": cell.cell_id, "gt": cell.gt_path, **paths})
    return jobs


def score(jobs: list[dict], kind: str, checks: Checks) -> list[float]:
    """`oracle score --candidate <kind> --gt gt` for every cell."""
    distances = []
    for job in jobs:
        try:
            candidate = oracle.read_alignment(job[kind])
            gt = oracle.read_alignment(job["gt"])
            d = oracle.move_distance(candidate, gt)
        except Exception as e:  # noqa: BLE001 - a failed score is a counted failure
            checks.fail(f"{job['cell_id']}: score {kind}: {type(e).__name__}: {e}")
            continue
        if checks.check(0.0 <= d <= 1.0, f"{job['cell_id']}: {kind} distance {d!r}"):
            distances.append(d)
    return distances


class Stages:
    """Wall time of the timed stages of one iteration."""

    def __init__(self, on_stage=None):
        self.seconds: dict[str, float] = {}
        self._on_stage = on_stage

    def timed(self, name: str, fn, *args):
        if self._on_stage is not None:
            self._on_stage(name, "start")
        t0 = time.perf_counter()
        result = fn(*args)
        self.seconds[name] = time.perf_counter() - t0
        if self._on_stage is not None:
            self._on_stage(name, "end")
        return result


def iterate(net, grid, work_root: str, checks: Checks,
            on_stage=None, corrupt=None) -> dict:
    """One iteration of a workload in a fresh dataset directory.

    Returns stage times, deterministic counters and the values compared with
    the recorded reference.  `corrupt(out, manifest)` runs between generation
    and read-back; the smoke test uses it to damage an output file.
    """
    out = tempfile.mkdtemp(prefix="iter-", dir=work_root)
    stages = Stages(on_stage)
    try:
        manifest = stages.timed("dataset", produce, net, grid, out, checks)
        counters = {
            "dataset.cells": len(manifest.cells),
            "dataset.events": sum(e.get("events", 0) for e in manifest.cells),
            "simulate.firings": sum(e.get("firings", 0) for e in manifest.cells),
            "logio.bytes_written": bytes_written(out),
            "oracle.moves_scored": 0,
            "oracle.dp_cells": 0,
        }
        digest = outputs_digest(out, manifest)
        if corrupt is not None:
            corrupt(out, manifest)
        cells = stages.timed("readback", read_back, out, manifest, checks)
        jobs = write_candidates(cells, grid.master_seed, counters)
        distances = {kind: stages.timed(f"score_{kind}", score, jobs, kind, checks)
                     for kind in CANDIDATES}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {
        "seconds": stages.seconds,
        "counters": counters,
        "reference": {
            "outputs_sha256": digest,
            **{f"{kind}_mean": (sum(ds) / len(ds) if ds else None)
               for kind, ds in distances.items()},
        },
    }
