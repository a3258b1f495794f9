"""Grid generation: behavioral-set x recording-set x sim-config fan-out.

Every cell independently derives M^S and M^L from the base model, simulates,
and writes model/ledger/trace/log files under its own directory; the manifest
ties everything together.  Cells get their seeds from (master_seed, indices),
so extending the grid never perturbs existing cells, and they are
embarrassingly parallel (`jobs` > 1 uses a process pool).
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from concurrent.futures import ProcessPoolExecutor

from . import logio
from .nets import Net
from .patterns import PatternApplication
from .serialize import net_from_dict, net_to_dict, net_digest
from .simulate import ConfigInvalid, SimConfig, run
from .transform import apply_sequence


class GenerationError(Exception):
    def __init__(self, cell_id: str, cause: Exception):
        self.cell_id = cell_id
        self.cause = cause
        super().__init__(f"cell {cell_id}: {cause}")


@dataclass
class GridSpec:
    """behavioral_sets (n) x recording_sets (m) x sim_configs (k).

    paired=True zips the behavioral and recording rows instead of crossing
    them (n == m required); the config axis stays a product either way.
    """

    behavioral_sets: list = field(default_factory=list)
    recording_sets: list = field(default_factory=list)
    sim_configs: list = field(default_factory=list)
    paired: bool = False
    master_seed: int = 0

    def validate(self) -> None:
        if not self.behavioral_sets or not self.recording_sets or not self.sim_configs:
            raise ConfigInvalid("grid axes must be non-empty (use [[]] for 'no patterns')")
        if self.paired and len(self.behavioral_sets) != len(self.recording_sets):
            raise ConfigInvalid("paired grids need equally many behavioral and recording sets")

    def to_dict(self) -> dict:
        return {
            "behavioral_sets": [[a.to_dict() for a in s] for s in self.behavioral_sets],
            "recording_sets": [[a.to_dict() for a in s] for s in self.recording_sets],
            "sim_configs": [c.to_dict() for c in self.sim_configs],
            "paired": self.paired,
            "master_seed": self.master_seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        """Read what `to_dict` writes, plus the `schema_version` of a grid
        file.  An unknown key, a non-boolean `paired` or a non-integer
        `master_seed` raises ConfigInvalid."""
        unknown = sorted(set(d) - _GRID_KEYS)
        if unknown:
            raise ConfigInvalid(f"unknown grid key(s) {unknown}; "
                                f"known keys are {sorted(_GRID_KEYS)}")
        paired = d.get("paired", False)
        if type(paired) is not bool:
            raise ConfigInvalid(f"grid 'paired' must be true or false, got {paired!r}")
        master_seed = d.get("master_seed", 0)
        if type(master_seed) is not int:
            raise ConfigInvalid(f"grid 'master_seed' must be an integer, got {master_seed!r}")
        return cls(
            behavioral_sets=[[PatternApplication.from_dict(a) for a in s]
                             for s in d.get("behavioral_sets", [])],
            recording_sets=[[PatternApplication.from_dict(a) for a in s]
                            for s in d.get("recording_sets", [])],
            sim_configs=[SimConfig.from_dict(c) for c in d.get("sim_configs", [])],
            paired=paired,
            master_seed=master_seed,
        )


_GRID_KEYS = frozenset(GridSpec().to_dict()) | {"schema_version"}


@dataclass(frozen=True)
class Cell:
    cell_id: str
    b_index: int
    r_index: int
    c_index: int
    behavioral: tuple
    recording: tuple


def enumerate_cells(grid: GridSpec) -> list[Cell]:
    """Deterministic cell order: behavioral index, recording index, config index."""
    grid.validate()
    cells = []
    if grid.paired:
        rows = [(i, i) for i in range(len(grid.behavioral_sets))]
    else:
        rows = [(b, r) for b in range(len(grid.behavioral_sets))
                for r in range(len(grid.recording_sets))]
    for b, r in rows:
        for c in range(len(grid.sim_configs)):
            cells.append(Cell(
                cell_id=f"b{b}-r{r}-c{c}",
                b_index=b, r_index=r, c_index=c,
                behavioral=tuple(grid.behavioral_sets[b]),
                recording=tuple(grid.recording_sets[r]),
            ))
    return cells


def cell_seed(master_seed: int, b: int, r: int, c: int) -> int:
    raw = hashlib.sha256(f"{master_seed}:{b}:{r}:{c}".encode()).digest()
    return int.from_bytes(raw[:8], "big") % (2 ** 63)


@dataclass
class DatasetManifest:
    master_seed: int
    m0_digest: str
    cells: list

    def entry(self, cell_id: str) -> dict | None:
        for e in self.cells:
            if e["cell_id"] == cell_id:
                return e
        return None

    def to_dict(self) -> dict:
        return {"master_seed": self.master_seed, "m0_digest": self.m0_digest,
                "cells": self.cells}

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetManifest":
        return cls(d["master_seed"], d["m0_digest"], list(d["cells"]))


def _generate_cell(payload: dict) -> dict:
    """Build, simulate and write one cell; module-level so pools can pickle it."""
    m0 = net_from_dict(payload["m0"])
    cell_id = payload["cell_id"]
    out_dir = payload["out_dir"]
    behavioral = [PatternApplication.from_dict(a) for a in payload["behavioral"]]
    recording = [PatternApplication.from_dict(a) for a in payload["recording"]]
    config = SimConfig.from_dict(payload["config"])

    ms, ledger_b = apply_sequence(m0, behavioral)
    ml, ledger_r = apply_sequence(ms, recording)
    digests = {"m0": payload["m0_digest"], "ms": net_digest(ms), "ml": net_digest(ml)}
    trace = run(ml, config, lineage=digests)
    log = logio.project_observed(trace)

    cell_dir = os.path.join(out_dir, "cells", cell_id)
    paths = {
        "model": os.path.join("cells", cell_id, "model.json"),
        "ledger": os.path.join("cells", cell_id, "ledger.json"),
        "trace": os.path.join("cells", cell_id, "trace.gt.jsonl"),
        "log_jsonl": os.path.join("cells", cell_id, "log.jsonl"),
        "log_csv": os.path.join("cells", cell_id, "log.csv"),
    }
    os.makedirs(cell_dir, exist_ok=True)
    logio.write_model(ml, os.path.join(out_dir, paths["model"]))
    ledger = {"entries": [e.to_dict() for e in ledger_b.entries + ledger_r.entries]}
    logio.write_json(ledger, os.path.join(out_dir, paths["ledger"]))
    logio.write_trace(trace, os.path.join(out_dir, paths["trace"]))
    logio.write_observed_jsonl(log, os.path.join(out_dir, paths["log_jsonl"]))
    logio.write_observed_csv(log, os.path.join(out_dir, paths["log_csv"]))

    object_counts: dict[str, int] = {}
    for otype in log.objects.values():
        object_counts[otype] = object_counts.get(otype, 0) + 1

    return {
        "cell_id": cell_id,
        "b_index": payload["b_index"],
        "r_index": payload["r_index"],
        "c_index": payload["c_index"],
        "seed": config.seed,
        "behavioral_codes": [a.code for a in behavioral],
        "recording_codes": [a.code for a in recording],
        "application_ids": [a.application_id for a in behavioral + recording],
        "digests": digests,
        "config_digest": config.digest(),
        "paths": paths,
        "pattern_counts": {app: dict(stats) for app, stats in trace.pattern_stats.items()},
        "object_counts": object_counts,
        "events": len(log.events),
        "firings": len(trace.records),
        "termination": trace.termination,
        "status": "ok",
    }


def generate(m0: Net, grid: GridSpec, out_dir: str, jobs: int = 1,
             keep_going: bool = False) -> DatasetManifest:
    cells = enumerate_cells(grid)
    m0_dict = net_to_dict(m0)
    # the digest of m0 as every cell and `read_model("m0.json")` see it
    m0_digest = net_digest(net_from_dict(m0_dict))
    payloads = []
    for cell in cells:
        config = replace(
            grid.sim_configs[cell.c_index],
            seed=cell_seed(grid.master_seed, cell.b_index, cell.r_index, cell.c_index),
            run_id=cell.cell_id,
        )
        payloads.append({
            "m0": m0_dict,
            "m0_digest": m0_digest,
            "cell_id": cell.cell_id,
            "b_index": cell.b_index,
            "r_index": cell.r_index,
            "c_index": cell.c_index,
            "behavioral": [a.to_dict() for a in cell.behavioral],
            "recording": [a.to_dict() for a in cell.recording],
            "config": config.to_dict(),
            "out_dir": out_dir,
        })

    entries: list[dict] = []

    def collect(payload, runner):
        try:
            entries.append(runner())
        except Exception as e:  # noqa: BLE001 - per-cell failures surface with the cell id
            if not keep_going:
                raise GenerationError(payload["cell_id"], e) from e
            entries.append({"cell_id": payload["cell_id"], "status": "failed",
                            "error": str(e)})

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [(p, pool.submit(_generate_cell, p)) for p in payloads]
            for payload, fut in futures:
                collect(payload, fut.result)
    else:
        for payload in payloads:
            collect(payload, lambda p=payload: _generate_cell(p))

    manifest = DatasetManifest(master_seed=grid.master_seed,
                               m0_digest=m0_digest, cells=entries)
    logio.write_model(m0, os.path.join(out_dir, "m0.json"))
    logio.write_json(manifest.to_dict(), os.path.join(out_dir, "manifest.json"))
    return manifest


def read_manifest(path: str) -> DatasetManifest:
    d = logio.read_json(path)
    return DatasetManifest.from_dict(d)
