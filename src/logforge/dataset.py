"""Grid generation: behavioral-set x recording-set x sim-config fan-out.

The cells of a (behavioral, recording) row share one build of M^S and M^L,
digested and encoded once.  Each cell simulates M^L under its own config and
writes its trace and logs under its own directory.  The row's first cell
that succeeds gets the row's model.json and ledger.json written; every later
cell of the row gets a hard link to those two files (a copy where the
filesystem refuses links), so the files of a dataset are read-only: an edit
in place of one cell's model changes the whole row.  The manifest ties
everything together.  Cells get their seeds from (master_seed, indices), so
extending the grid never perturbs existing cells, and `jobs` > 1 runs them
in a process pool, one cell per task; the main process writes and links the
shared files, in cell order.  A cell that fails leaves none of its files:
its manifest entry says why.
"""
from __future__ import annotations

import hashlib
import os
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from itertools import tee

from . import logio
from .nets import Net
from .patterns import applications_from_json
from .serialize import net_from_dict, net_to_dict, net_digest
from .simulate import ConfigInvalid, SimConfig, run
from .timing import reject_unknown_keys, typed
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
        file.  An unknown key or a mistyped value raises ConfigInvalid."""
        reject_unknown_keys(d, _GRID_KEYS, "grid")
        return cls(
            behavioral_sets=_application_sets(d, "behavioral_sets"),
            recording_sets=_application_sets(d, "recording_sets"),
            sim_configs=[SimConfig.from_dict(c) for c in typed(d, "sim_configs", (list,), [])],
            paired=typed(d, "paired", (bool,), False),
            master_seed=typed(d, "master_seed", (int,), 0),
        )


_GRID_KEYS = frozenset(GridSpec().to_dict()) | {"schema_version"}


def _application_sets(d: dict, key: str) -> list:
    """The grid axis `key`: a list of lists of pattern applications."""
    sets = typed(d, key, (list,), [])
    return [applications_from_json(typed(sets, i, (list,)), f"{key}[{i}]")
            for i in range(len(sets))]


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

    def to_dict(self) -> dict:
        return {"master_seed": self.master_seed, "m0_digest": self.m0_digest,
                "cells": self.cells}


@dataclass(frozen=True)
class ModelPair:
    """M^L of one (behavioral, recording) row, its lineage digests, and the
    model.json and ledger.json text the cells of the row share."""

    ml: Net
    digests: dict
    model_text: str
    ledger_text: str


def _build_pair(m0: Net, m0_digest: str, cell: Cell) -> ModelPair | Exception:
    """The pair of `cell`'s row, or the error that stopped its build."""
    try:
        ms, ledger_b = apply_sequence(m0, cell.behavioral)
        ml, ledger_r = apply_sequence(ms, cell.recording)
        model_text, ml_digest = logio.encode_model(ml)
        ledger = {"entries": [e.to_dict() for e in ledger_b.entries + ledger_r.entries]}
        return ModelPair(ml, {"m0": m0_digest, "ms": net_digest(ms), "ml": ml_digest},
                         model_text, logio.json_text(ledger))
    except Exception as e:  # noqa: BLE001 - each cell of the row reports it
        return e


def _cell_paths(cell: Cell) -> dict:
    """The cell's five files, relative to the dataset directory."""
    names = {"model": "model.json", "ledger": "ledger.json", **logio.RUN_FILES}
    return {key: os.path.join("cells", cell.cell_id, name) for key, name in names.items()}


def _failed(cell: Cell, error: Exception, out_dir: str) -> dict:
    """The manifest entry of a cell that `error` stopped, once whichever of
    the cell's files were written, and then its emptied directory, are
    removed."""
    for rel in _cell_paths(cell).values():
        try:
            os.unlink(os.path.join(out_dir, rel))
        except FileNotFoundError:
            pass
    try:
        os.rmdir(os.path.join(out_dir, "cells", cell.cell_id))
    except OSError:  # never made, or holding files that are not the cell's
        pass
    return {"cell_id": cell.cell_id, "status": "failed", "error": str(error),
            "error_type": type(error).__name__}


def _generate_cell(job: tuple) -> tuple[dict, Exception | None]:
    """Simulate one cell on its row's pair and write its trace and logs
    (module-level so pools can pickle it): the cell's manifest entry, and its
    error.  The entry's model and ledger paths are left to `_share_row_files`."""
    cell, config, pair, out_dir = job
    try:
        if isinstance(pair, Exception):
            raise pair
        trace = run(pair.ml, config, lineage=pair.digests)
        log = logio.write_run(trace, os.path.join(out_dir, "cells", cell.cell_id))
    except Exception as e:  # noqa: BLE001 - per-cell failures surface with the cell id
        return _failed(cell, e, out_dir), e
    return {
        "cell_id": cell.cell_id,
        "b_index": cell.b_index,
        "r_index": cell.r_index,
        "c_index": cell.c_index,
        "seed": config.seed,
        "behavioral_codes": [a.code for a in cell.behavioral],
        "recording_codes": [a.code for a in cell.recording],
        "application_ids": [a.application_id for a in cell.behavioral + cell.recording],
        "digests": dict(pair.digests),
        "config_digest": trace.config_digest,
        "paths": _cell_paths(cell),
        "pattern_counts": {app: dict(stats) for app, stats in trace.pattern_stats.items()},
        "object_counts": dict(Counter(log.objects.values())),
        "events": len(log.events),
        "firings": len(trace.records),
        "termination": trace.termination,
        "status": "ok",
    }, None


def _share_row_files(out_dir: str, paths: dict, pair: ModelPair,
                     sources: tuple | None) -> tuple:
    """Give a cell of `pair`'s row its model.json and ledger.json at `paths`:
    hard links to `sources`, the row's files already written, or, when the
    row has none yet, the texts written.  The row's sources after this cell."""
    targets = os.path.join(out_dir, paths["model"]), os.path.join(out_dir, paths["ledger"])
    texts = pair.model_text, pair.ledger_text
    if sources is None:
        for path, text in zip(targets, texts):
            logio.atomic_write(path, text)
        return targets
    for src, path, text in zip(sources, targets, texts):
        logio.link_write(src, path, text)
    return sources


def _cell_jobs(m0: Net, m0_digest: str, grid: GridSpec, out_dir: str):
    """One job per cell, in cell order; a row's pair is built when its first
    cell is reached and shared by the rest of the row."""
    row = pair = None
    for cell in enumerate_cells(grid):
        if (cell.b_index, cell.r_index) != row:
            row, pair = (cell.b_index, cell.r_index), _build_pair(m0, m0_digest, cell)
        seed = cell_seed(grid.master_seed, cell.b_index, cell.r_index, cell.c_index)
        config = replace(grid.sim_configs[cell.c_index], seed=seed, run_id=cell.cell_id)
        yield cell, config, pair, out_dir


def _pool(jobs: int):
    """A pool of `jobs` worker processes, or a null context for one job.
    The pool is imported here, not with this module, so that a serial run
    never loads `multiprocessing`."""
    if jobs <= 1:
        return nullcontext()
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=jobs)


def generate(m0: Net, grid: GridSpec, out_dir: str, jobs: int = 1,
             keep_going: bool = False) -> DatasetManifest:
    # m0 as every cell and `read_model("m0.json")` see it
    m0_read = net_from_dict(net_to_dict(m0))
    m0_text, m0_digest = logio.encode_model(m0_read)
    entries: list[dict] = []
    # the main process gives each cell that succeeded its row's shared files,
    # holding only the current row's pair and sources
    cell_jobs, placed = tee(_cell_jobs(m0_read, m0_digest, grid, out_dir))
    row = sources = None
    with _pool(jobs) as pool:
        mapper = map if pool is None else pool.map
        for (cell, _, pair, _), (entry, error) in zip(placed, mapper(_generate_cell, cell_jobs)):
            if error is None:
                if (cell.b_index, cell.r_index) != row:
                    row, sources = (cell.b_index, cell.r_index), None
                try:
                    sources = _share_row_files(out_dir, entry["paths"], pair, sources)
                except OSError as e:
                    entry, error = _failed(cell, e, out_dir), e
            if error is not None and not keep_going:
                raise GenerationError(entry["cell_id"], error) from error
            entries.append(entry)

    manifest = DatasetManifest(master_seed=grid.master_seed,
                               m0_digest=m0_digest, cells=entries)
    logio.atomic_write(os.path.join(out_dir, "m0.json"), m0_text)
    logio.write_json(manifest.to_dict(), os.path.join(out_dir, "manifest.json"))
    return manifest
