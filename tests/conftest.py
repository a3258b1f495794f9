import pytest
from dataclasses import replace

from logforge import fixtures
from logforge.dataset import cell_seed, enumerate_cells, generate
from logforge.logio import project_observed, write_jsonl
from logforge.simulate import run
from logforge.transform import apply_sequence


@pytest.fixture(scope="session")
def package_fixture():
    return fixtures.fixture("package_delivery")


@pytest.fixture(scope="session")
def package_cells(package_fixture):
    """All twelve package cells, simulated in memory at the pinned seed."""
    net, grid = package_fixture
    out = []
    for cell in enumerate_cells(grid):
        ms, ledger_b = apply_sequence(net, list(cell.behavioral))
        ml, ledger_r = apply_sequence(ms, list(cell.recording))
        config = replace(
            grid.sim_configs[0],
            seed=cell_seed(grid.master_seed, cell.b_index, cell.r_index, cell.c_index),
            run_id=cell.cell_id,
        )
        trace = run(ml, config)
        log = project_observed(trace)
        ledger = ledger_b.entries + ledger_r.entries
        out.append({"cell": cell, "ml": ml, "trace": trace, "log": log,
                    "ledger": ledger,
                    "apps": [a.application_id for a in cell.behavioral + cell.recording]})
    return out


@pytest.fixture(scope="session")
def cell_by_pattern(package_cells):
    def find(application_id):
        for item in package_cells:
            if application_id in item["apps"]:
                return item
        raise KeyError(application_id)
    return find


@pytest.fixture(scope="session")
def fixture_datasets(tmp_path_factory):
    """Each bundled fixture's dataset, generated once: name -> (directory,
    manifest).  Readers may add files to a cell directory but change none."""
    out = {}
    for name in fixtures.FIXTURES:
        directory = str(tmp_path_factory.mktemp(name))
        out[name] = directory, generate(*fixtures.fixture(name), directory)
    return out


def _write_v1_alignment(alignment, path):
    """Write `alignment` as a schema "1" file, the format external checkers
    write: no header, one line per move of each object, with its `object`
    and `seq`."""
    def lines():
        for obj, moves in sorted(alignment.per_object.items()):
            for seq, move in enumerate(moves):
                line = move.to_line(None)
                del line["at"]
                yield {**line, "object": obj, "seq": seq}
    write_jsonl(lines(), path)


@pytest.fixture(scope="session")
def write_v1_alignment():
    return _write_v1_alignment
