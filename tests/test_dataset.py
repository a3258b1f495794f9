import json
import os
from dataclasses import replace

import pytest

from logforge import fixtures, logio
from logforge.dataset import (GenerationError, GridSpec, cell_seed,
                              enumerate_cells, generate)
from logforge.patterns import PatternApplication
from logforge.serialize import SCHEMA_VERSION, canonical_json, net_digest
from logforge.simulate import SimConfig, trace_replays


def small_grid(paired=False, rows=None):
    net, grid = fixtures.fixture("package_delivery")
    return net, grid


def test_enumerate_full_product():
    _, grid = fixtures.fixture("package_delivery")
    g = GridSpec(behavioral_sets=[[]] * 7, recording_sets=[[]] * 2,
                 sim_configs=[grid.sim_configs[0]])
    assert len(enumerate_cells(g)) == 14


def test_enumerate_paired_package_grid_has_twelve_cells():
    _, grid = fixtures.fixture("package_delivery")
    cells = enumerate_cells(grid)
    assert len(cells) == 12
    assert [c.cell_id for c in cells] == [f"b{i}-r{i}-c0" for i in range(12)]
    # six behavioral singletons, then six recording singletons
    assert all(len(c.behavioral) == 1 and not c.recording for c in cells[:6])
    assert all(not c.behavioral and len(c.recording) == 1 for c in cells[6:])


def test_enumerate_single_empty_cell():
    _, grid = fixtures.fixture("package_delivery")
    g = GridSpec(behavioral_sets=[[]], recording_sets=[[]],
                 sim_configs=[grid.sim_configs[0]])
    cells = enumerate_cells(g)
    assert len(cells) == 1
    assert cells[0].behavioral == () and cells[0].recording == ()


def test_paired_grid_requires_equal_lengths():
    _, grid = fixtures.fixture("package_delivery")
    g = GridSpec(behavioral_sets=[[], []], recording_sets=[[]],
                 sim_configs=[grid.sim_configs[0]], paired=True)
    with pytest.raises(ValueError):
        enumerate_cells(g)


def test_empty_axes_rejected():
    with pytest.raises(ValueError):
        enumerate_cells(GridSpec(behavioral_sets=[], recording_sets=[[]],
                                 sim_configs=[SimConfig(firing_limit=1)]))


def test_cell_seeds_stable_under_grid_growth():
    seeds = [cell_seed(7, b, r, c) for b in range(3) for r in range(3) for c in range(2)]
    assert len(set(seeds)) == len(seeds)
    # adding more configs later never perturbs existing cells
    assert cell_seed(7, 1, 2, 0) == cell_seed(7, 1, 2, 0)
    assert cell_seed(7, 1, 2, 0) != cell_seed(8, 1, 2, 0)


@pytest.mark.parametrize("name", fixtures.FIXTURES)
def test_grid_round_trip(name):
    # through JSON text, as `logforge dataset --grid` reads it: delay
    # parameters come back as Delays, so the grids compare equal
    _, grid = fixtures.fixture(name)
    back = GridSpec.from_dict(json.loads(canonical_json(grid.to_dict())))
    assert back == grid
    assert back.to_dict() == grid.to_dict()


@pytest.fixture(scope="module")
def package_dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pkgds"))
    net, grid = fixtures.fixture("package_delivery")
    manifest = generate(net, grid, out)
    return net, grid, manifest, out


def test_generate_writes_twelve_consistent_cells(package_dataset):
    net, grid, manifest, out = package_dataset
    assert len(manifest.cells) == 12
    assert all(e["status"] == "ok" for e in manifest.cells)
    for entry in manifest.cells:
        ml = logio.read_model(os.path.join(out, entry["paths"]["model"]))
        trace = logio.read_trace(os.path.join(out, entry["paths"]["trace"]), net=ml)
        log = logio.read_observed_jsonl(os.path.join(out, entry["paths"]["log_jsonl"]))
        csv_log = logio.read_observed_csv(os.path.join(out, entry["paths"]["log_csv"]))
        assert trace_replays(ml, trace)
        assert len(log.events) == len(csv_log.events) == entry["events"]
        assert entry["object_counts"].get("package") == 2
        ledger = logio.read_json(os.path.join(out, entry["paths"]["ledger"]))
        assert {e["application_id"] for e in ledger["entries"]} == set(entry["application_ids"])


def test_manifest_round_trip(package_dataset):
    _, _, manifest, out = package_dataset
    back = logio.read_json(os.path.join(out, "manifest.json"))
    assert canonical_json(back) == canonical_json(
        {"schema_version": SCHEMA_VERSION, **manifest.to_dict()})
    assert back["cells"][0]["cell_id"] == "b0-r0-c0"
    assert back["cells"][0]["seed"] == manifest.cells[0]["seed"]


def test_each_cell_digests_its_config_once(tmp_path, monkeypatch):
    net, grid = fixtures.fixture("package_delivery")
    digest = SimConfig.digest
    digested = []

    def counting(config):
        digested.append(config.run_id)
        return digest(config)

    monkeypatch.setattr(SimConfig, "digest", counting)
    out = str(tmp_path / "out")
    manifest = generate(net, grid, out)
    assert sorted(digested) == sorted(e["cell_id"] for e in manifest.cells)
    for entry in manifest.cells:
        trace = logio.read_trace(os.path.join(out, entry["paths"]["trace"]))
        assert entry["config_digest"] == trace.config_digest


def _integer_weight_dataset(out):
    """A library m0 with an integer weight piece, its dataset's manifest under
    `out`, and the path of the dataset's m0.json."""
    net, grid = fixtures.fixture("package_delivery")
    m0 = replace(net, annotations=net.annotations.merged_with(weights=[("ring", ((0, 1),))]))
    small = GridSpec(behavioral_sets=[[], grid.behavioral_sets[0]], recording_sets=[[]],
                     sim_configs=grid.sim_configs)
    return m0, generate(m0, small, str(out)), os.path.join(out, "m0.json")


def test_m0_digest_agrees_for_a_library_net_with_integer_weights(tmp_path):
    # an integer weight turns into a float on the way through model.json, so
    # the manifest must digest m0 as the cells and a reader see it
    m0, manifest, _ = _integer_weight_dataset(tmp_path)
    read_back = net_digest(logio.read_model(os.path.join(tmp_path, "m0.json")))
    assert read_back != net_digest(m0)
    assert {manifest.m0_digest} | {e["digests"]["m0"] for e in manifest.cells} == {read_back}


def test_m0_json_is_the_text_the_manifest_digests(tmp_path):
    _, manifest, path = _integer_weight_dataset(tmp_path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert (text, manifest.m0_digest) == logio.encode_model(logio.read_model(path))


def test_designated_pattern_fires_and_no_others(package_dataset):
    net, grid, manifest, out = package_dataset
    for entry in manifest.cells:
        apps = set(entry["application_ids"])
        counts = entry["pattern_counts"]
        assert set(counts) == apps
        assert all(counts[a]["fired"] >= 1 for a in apps)
        trace = logio.read_trace(os.path.join(out, entry["paths"]["trace"]))
        tagged = {r.provenance.application_id for r in trace.records
                  if r.provenance.application_id} | \
                 {a for r in trace.records for a in r.timing_causes}
        assert tagged <= apps and tagged


def test_parallel_generation_matches_serial(tmp_path, package_dataset):
    import hashlib
    net, grid, manifest, serial_out = package_dataset
    par_out = str(tmp_path / "par")
    generate(net, grid, par_out, jobs=2)
    for entry in manifest.cells:
        for key, rel in entry["paths"].items():
            a = hashlib.sha256(open(os.path.join(serial_out, rel), "rb").read()).hexdigest()
            b = hashlib.sha256(open(os.path.join(par_out, rel), "rb").read()).hexdigest()
            assert a == b, (entry["cell_id"], key)


def _bad_pair_grid(grid, configs=1):
    """A paired grid whose first row's behavioral set names no transition."""
    return GridSpec(
        behavioral_sets=[[PatternApplication("oops", "BI_3", {"t": "ghost"})], []],
        recording_sets=[[], []],
        sim_configs=[grid.sim_configs[0]] * configs,
        paired=True,
        master_seed=1,
    )


def test_fail_fast_and_keep_going(tmp_path):
    net, grid = fixtures.fixture("package_delivery")
    bad = _bad_pair_grid(grid)
    with pytest.raises(GenerationError):
        generate(net, bad, str(tmp_path / "ff"))
    manifest = generate(net, bad, str(tmp_path / "kg"), keep_going=True)
    statuses = {e["cell_id"]: e["status"] for e in manifest.cells}
    assert statuses["b0-r0-c0"] == "failed"
    assert statuses["b1-r1-c0"] == "ok"


def test_parallel_fail_fast_names_the_first_failing_cell(tmp_path):
    net, grid = fixtures.fixture("package_delivery")
    with pytest.raises(GenerationError) as info:
        generate(net, _bad_pair_grid(grid), str(tmp_path / "ff"), jobs=2)
    assert info.value.cell_id == "b0-r0-c0"
    assert "ghost" in str(info.value.cause)


def test_parallel_keep_going_gives_the_serial_manifest(tmp_path):
    net, grid = fixtures.fixture("package_delivery")
    bad = _bad_pair_grid(grid)
    serial = generate(net, bad, str(tmp_path / "serial"), keep_going=True)
    parallel = generate(net, bad, str(tmp_path / "par"), jobs=2, keep_going=True)
    assert parallel.to_dict() == serial.to_dict()
    assert [e["status"] for e in serial.cells] == ["failed", "ok"]


def test_failed_pair_marks_each_of_its_cells_failed(tmp_path):
    net, grid = fixtures.fixture("package_delivery")
    manifest = generate(net, _bad_pair_grid(grid, configs=2), str(tmp_path / "kg"),
                        keep_going=True)
    failed = [e for e in manifest.cells if e["status"] == "failed"]
    assert [e["cell_id"] for e in failed] == ["b0-r0-c0", "b0-r0-c1"]
    assert failed[0]["error"] == failed[1]["error"] and "ghost" in failed[0]["error"]
    assert failed[0]["error_type"] == failed[1]["error_type"] == "InvalidMapping"
    assert [e["status"] for e in manifest.cells[2:]] == ["ok", "ok"]


def test_an_application_without_an_id_fails_its_cells(tmp_path):
    # the cells would hold a model that `validate` refuses, and a trace
    # that `read_trace` refuses
    net, grid = fixtures.fixture("package_delivery")
    bad = GridSpec(behavioral_sets=[[PatternApplication("", "BI_3", {"t": "ring"})]],
                   recording_sets=[[]], sim_configs=grid.sim_configs[:1], paired=True,
                   master_seed=1)
    manifest = generate(net, bad, str(tmp_path / "kg"), keep_going=True)
    [failed] = manifest.cells
    assert failed["status"] == "failed" and failed["error_type"] == "InvalidMapping"
    assert "non-empty application_id" in failed["error"]


def test_a_misspelt_competitor_fails_each_cell_of_its_row(tmp_path):
    net, grid = fixtures.fixture("package_delivery")
    app = PatternApplication("a", "BI_3", {"t": "ring"}, {"weight": 0.05}, competitors=("rnig",))
    bad = GridSpec(behavioral_sets=[[app], []], recording_sets=[[], []],
                   sim_configs=grid.sim_configs * 2, paired=True, master_seed=1)
    out = tmp_path / "kg"
    manifest = generate(net, bad, str(out), keep_going=True)
    assert [(c["cell_id"], c["status"], c.get("error_type")) for c in manifest.cells] == [
        ("b0-r0-c0", "failed", "InvalidMapping"), ("b0-r0-c1", "failed", "InvalidMapping"),
        ("b1-r1-c0", "ok", None), ("b1-r1-c1", "ok", None)]
    assert all("probes names 'rnig'" in c["error"] for c in manifest.cells[:2])
    assert sorted(os.listdir(out / "cells")) == ["b1-r1-c0", "b1-r1-c1"]


def _three_config_grid(first_config=None):
    """Two rows of the package grid, each with three configs; `first_config`
    replaces the first."""
    _, grid = fixtures.fixture("package_delivery")
    configs = grid.sim_configs * 3
    if first_config is not None:
        configs[0] = first_config
    return replace(grid, behavioral_sets=grid.behavioral_sets[5:7],
                   recording_sets=grid.recording_sets[5:7], sim_configs=configs)


def _files(out):
    """Every file under `out`: relative path -> bytes."""
    files = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            files[os.path.relpath(path, out)] = open(path, "rb").read()
    return files


def _shared_stats(out, manifest, key):
    """Per row, the (inode, link count) of the cells' `key` file."""
    rows: dict = {}
    for entry in manifest.cells:
        if entry["status"] == "ok":
            st = os.stat(os.path.join(out, entry["paths"][key]))
            rows.setdefault((entry["b_index"], entry["r_index"]), set()).add(
                (st.st_ino, st.st_nlink))
    return rows


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_cells_of_a_row_share_one_model_and_ledger_file(tmp_path, jobs):
    net, _ = fixtures.fixture("package_delivery")
    out = str(tmp_path / "ds")
    manifest = generate(net, _three_config_grid(), out, jobs=jobs)
    assert len(manifest.cells) == 6
    for key in ("model", "ledger"):
        rows = _shared_stats(out, manifest, key)
        assert len(rows) == 2 and all(len(stats) == 1 for stats in rows.values())
        assert {nlink for stats in rows.values() for _, nlink in stats} == {3}
        assert len({ino for stats in rows.values() for ino, _ in stats}) == 2
    for entry in manifest.cells:
        assert os.stat(os.path.join(out, entry["paths"]["trace"])).st_nlink == 1


def test_a_refused_link_gives_the_same_bytes_as_a_copy(tmp_path, monkeypatch):
    net, _ = fixtures.fixture("package_delivery")
    linked = str(tmp_path / "linked")
    generate(net, _three_config_grid(), linked)

    def refuse(src, dst, **kwargs):
        raise PermissionError(1, "Operation not permitted", dst)

    monkeypatch.setattr(os, "link", refuse)
    copied = str(tmp_path / "copied")
    manifest = generate(net, _three_config_grid(), copied)
    assert _files(copied) == _files(linked)
    assert all(os.stat(os.path.join(copied, entry["paths"][key])).st_nlink == 1
               for entry in manifest.cells for key in ("model", "ledger"))


def test_regenerating_into_the_same_directory_gives_the_same_files(tmp_path):
    net, _ = fixtures.fixture("package_delivery")
    out = str(tmp_path / "ds")
    generate(net, _three_config_grid(), out)
    first = _files(out)
    manifest = generate(net, _three_config_grid(), out)
    assert _files(out) == first  # no temporary file is left either
    for key in ("model", "ledger"):
        assert all(len(stats) == 1 and next(iter(stats))[1] == 3
                   for stats in _shared_stats(out, manifest, key).values())


def test_a_failed_first_cell_has_no_model_and_the_next_ok_cell_is_the_source(tmp_path):
    net, grid = fixtures.fixture("package_delivery")
    # the run rejects a weight for a transition the net does not have
    bad = replace(grid.sim_configs[0], weights={"ghost": ((0.0, 1.0),)})
    out = str(tmp_path / "ds")
    manifest = generate(net, _three_config_grid(bad), out, keep_going=True)
    failed = [e for e in manifest.cells if e["status"] == "failed"]
    assert [e["cell_id"] for e in failed] == ["b0-r0-c0", "b1-r1-c0"]
    assert {e["error_type"] for e in failed} == {"ConfigInvalid"}
    assert all("ghost" in e["error"] for e in failed)
    for cell_id in ("b0-r0-c0", "b1-r1-c0"):
        assert not os.path.exists(os.path.join(out, "cells", cell_id, "model.json"))
    for key in ("model", "ledger"):
        rows = _shared_stats(out, manifest, key)
        assert all(len(stats) == 1 and next(iter(stats))[1] == 2 for stats in rows.values())
    with pytest.raises(GenerationError) as info:
        generate(net, _three_config_grid(bad), str(tmp_path / "ff"))
    assert info.value.cell_id == "b0-r0-c0"


def test_a_failed_shared_file_write_fails_its_cell(tmp_path, monkeypatch):
    net, _ = fixtures.fixture("package_delivery")
    write = logio.atomic_write

    def full_disk(path, text):
        if path.endswith(os.path.join("b1-r1-c0", "ledger.json")):
            raise OSError(28, "No space left on device", path)
        write(path, text)

    monkeypatch.setattr(logio, "atomic_write", full_disk)
    out = str(tmp_path / "ds")
    manifest = generate(net, _three_config_grid(), out, keep_going=True)
    assert [e["status"] for e in manifest.cells] == ["ok"] * 3 + ["failed", "ok", "ok"]
    failed = manifest.cells[3]
    assert failed["error_type"] == "OSError" and "No space left" in failed["error"]
    # the failed cell leaves none of its files, not even the model written before
    assert not os.path.exists(os.path.join(out, "cells", "b1-r1-c0"))
    # the row's next ok cell writes the files the failed cell could not
    rows = _shared_stats(out, manifest, "ledger")
    assert sorted(next(iter(stats))[1] for stats in rows.values()) == [2, 3]
    with pytest.raises(GenerationError) as info:
        generate(net, _three_config_grid(), str(tmp_path / "ff"))
    assert info.value.cell_id == "b1-r1-c0" and isinstance(info.value.cause, OSError)


def test_a_cell_that_fails_in_its_job_leaves_none_of_its_files(tmp_path, monkeypatch):
    net, _ = fixtures.fixture("package_delivery")
    write_csv = logio.write_observed_csv

    def full_disk(log, path):
        if os.path.join("b0-r0-c1", "log.csv") in path:
            raise OSError(28, "No space left on device", path)
        write_csv(log, path)

    monkeypatch.setattr(logio, "write_observed_csv", full_disk)
    out = str(tmp_path / "ds")
    manifest = generate(net, _three_config_grid(), out, keep_going=True)
    assert [e["status"] for e in manifest.cells] == ["ok", "failed"] + ["ok"] * 4
    assert manifest.cells[1]["error_type"] == "OSError"
    assert sorted(os.listdir(os.path.join(out, "cells"))) == \
        sorted(e["cell_id"] for e in manifest.cells if e["status"] == "ok")
    # the row's other cells keep their shared files
    rows = _shared_stats(out, manifest, "model")
    assert sorted(next(iter(stats))[1] for stats in rows.values()) == [2, 3]
    with pytest.raises(GenerationError) as info:
        generate(net, _three_config_grid(), str(tmp_path / "ff"))
    assert info.value.cell_id == "b0-r0-c1"
    assert not os.path.exists(os.path.join(str(tmp_path / "ff"), "cells", "b0-r0-c1"))


def test_trace_does_not_depend_on_earlier_runs_of_the_same_ml(tmp_path):
    from logforge.simulate import run
    from logforge.transform import apply_sequence
    net, grid = fixtures.fixture("package_delivery")
    for cell in enumerate_cells(grid)[:8:3]:
        ml, _ = apply_sequence(apply_sequence(net, cell.behavioral)[0], cell.recording)
        fresh, _ = apply_sequence(apply_sequence(net, cell.behavioral)[0], cell.recording)
        for seed in (3, 4, 5):
            run(ml, replace(grid.sim_configs[0], seed=seed))
        config = replace(grid.sim_configs[0], seed=11, run_id=cell.cell_id)
        served, new = str(tmp_path / "served.jsonl"), str(tmp_path / "fresh.jsonl")
        logio.write_trace(run(ml, config), served)
        logio.write_trace(run(fresh, config), new)
        assert open(served, "rb").read() == open(new, "rb").read(), cell.cell_id


def test_cells_of_a_shared_pair_do_not_depend_on_their_order(tmp_path):
    from logforge import dataset
    net, grid = fixtures.fixture("package_delivery")
    grid = replace(grid, behavioral_sets=grid.behavioral_sets[:2],
                   recording_sets=grid.recording_sets[:2],
                   sim_configs=grid.sim_configs * 3)
    forward = str(tmp_path / "forward")
    manifest = generate(net, grid, forward)
    backward = str(tmp_path / "backward")
    m0 = logio.read_model(os.path.join(forward, "m0.json"))
    jobs = list(dataset._cell_jobs(m0, manifest.m0_digest, grid, backward))
    # every cell of a row shares one pair, so reversing the row reuses it
    assert len({id(pair) for _, _, pair, _ in jobs}) == 2
    entries, sources = [], {}
    for job in reversed(jobs):
        entry, error = dataset._generate_cell(job)
        cell, _, pair, _ = job
        row = cell.b_index, cell.r_index
        sources[row] = dataset._share_row_files(backward, entry["paths"], pair, sources.get(row))
        entries.append((entry, error))
    assert [error for _, error in entries] == [None] * len(jobs)
    assert [entry for entry, _ in reversed(entries)] == manifest.cells
    for entry in manifest.cells:
        for rel in entry["paths"].values():
            a = open(os.path.join(forward, rel), "rb").read()
            b = open(os.path.join(backward, rel), "rb").read()
            assert a == b, (entry["cell_id"], rel)


def test_a_read_model_is_left_unchanged_and_serves_the_next_cell(tmp_path, monkeypatch):
    from logforge import oracle, simulate
    net, grid = fixtures.fixture("package_delivery")
    # the row whose recording error annotates object discrepancies, twice
    grid = replace(grid, behavioral_sets=grid.behavioral_sets[10:11],
                   recording_sets=grid.recording_sets[10:11],
                   sim_configs=grid.sim_configs * 2)
    out = str(tmp_path / "ds")
    first, second = generate(net, grid, out).cells

    def models(entry):
        return (logio.read_model(os.path.join(out, "m0.json")),
                logio.read_model(os.path.join(out, entry["paths"]["model"])))

    def align(entry, m0, ml, path):
        at = {key: os.path.join(out, rel) for key, rel in entry["paths"].items()}
        trace = logio.read_trace(at["trace"], net=ml)
        oracle.write_alignment(
            oracle.gt_alignment(m0, trace, logio.read_observed_jsonl(at["log_jsonl"])), path)
        return trace, open(path, "rb").read()

    def state(n):
        final = None if n.final_marking is None else n.final_marking.to_lists()
        return net_digest(n), n.initial_marking.to_lists(), final

    monkeypatch.setattr(logio, "_models", {})
    _, cold = align(second, *models(second), str(tmp_path / "cold.jsonl"))

    monkeypatch.setattr(logio, "_models", {})
    m0, ml = models(first)
    before = [state(m0), state(ml)]
    trace, _ = align(first, m0, ml, str(tmp_path / "first.jsonl"))
    simulate.run(ml, replace(grid.sim_configs[0], seed=5))
    assert simulate.trace_replays(ml, trace)
    assert oracle.deviation_report(trace).entries
    assert [state(m0), state(ml)] == before
    warm_m0, warm_ml = models(second)
    assert warm_m0 is m0 and warm_ml is ml
    _, warm = align(second, m0, ml, str(tmp_path / "warm.jsonl"))
    assert b'"discrepancy"' in warm and warm == cold


def test_fixture_package_vocabulary():
    net, grid = fixtures.fixture("package_delivery")
    assert {t.name for t in net.object_types} == {
        "package", "queue", "warehouse_employee", "van", "courier", "depot"}
    m = net.initial_marking
    assert sorted(m.tokens("p_we")) == [("we_1",), ("we_2",)]
    assert sorted(m.tokens("p_c")) == [("c_1",), ("c_2",)]
    assert sorted(m.tokens("p_d")) == [("d_1",), ("d_2",)]
    assert sorted(m.tokens("p_van_pool")) == [("v_1",), ("v_2",)]
    queue_slots = [m.tokens(p) for p in ("p_q1_free", "p_q2_free", "p_q3_free")]
    assert all(sum(c.values()) == 1 for c in queue_slots)


def test_fixture_energy_staffing():
    net, grid = fixtures.fixture("energy_contract")
    m = net.initial_marking
    assert sum(m.tokens("p_ag").values()) == 3
    assert sum(m.tokens("p_mgr").values()) == 1
    labels = {t.activity_label for t in net.transitions if t.activity_label}
    # duplicate labels are intentional: open/close file and cancel appear twice
    opens = [t for t in net.transitions if t.activity_label == "open file"]
    assert len(opens) == 2


def test_fixture_assembly_shape():
    net, grid = fixtures.fixture("assembly")
    stage_labels = {t.activity_label for t in net.transitions
                    if t.activity_label and t.activity_label.startswith("stage")}
    assert stage_labels == {f"stage {s}" for s in "ABCDEFG"}
    operators = [i for i, _, _ in net.initial_marking.items() if i.startswith("p_op")]
    ops = [tok for pid, tok, _ in net.initial_marking.items() if pid.startswith("p_op")]
    assert len(ops) == 3


def test_unknown_fixture():
    with pytest.raises(fixtures.UnknownFixture):
        fixtures.fixture("nope")


def test_base_filtered_trace_replays_on_ms_for_behavioral_cells(package_cells):
    from logforge.nets import Binding, replay
    from logforge.transform import apply_sequence
    net, grid = fixtures.fixture("package_delivery")
    for item in package_cells:
        cell = item["cell"]
        trace = item["trace"]
        ms, _ = apply_sequence(net, list(cell.behavioral))
        if not cell.recording:
            # behavioral cells: M^L == M^S, the full trace replays directly
            seq = [(r.transition, Binding(r.values, r.fresh)) for r in trace.records]
            assert replay(ms, seq, extra_tokens=trace.injected)
        else:
            rerouted = any(not r.provenance.is_base for r in trace.records)
            filtered = [(r.transition, Binding(r.values, r.fresh)) for r in trace.records
                        if r.provenance.is_base]
            ok = replay(ms, filtered, extra_tokens=trace.injected)
            # recording patterns rerouted base tokens here, so the filtered
            # sequence must not replay; if none had fired it would
            assert ok == (not rerouted)


def test_energy_cell_counts_every_applied_pattern(tmp_path):
    net, grid = fixtures.fixture("energy_contract")
    manifest = generate(net, grid, str(tmp_path / "energy"))
    assert len(manifest.cells) == 1
    entry = manifest.cells[0]
    assert len(entry["application_ids"]) == 9
    assert all(entry["pattern_counts"][a]["fired"] >= 1
               for a in entry["application_ids"])


def test_assembly_cell_counts_every_applied_pattern(tmp_path):
    net, grid = fixtures.fixture("assembly")
    manifest = generate(net, grid, str(tmp_path / "assembly"))
    entry = manifest.cells[0]
    assert all(entry["pattern_counts"][a]["fired"] >= 1
               for a in entry["application_ids"])
    assert entry["object_counts"].get("product") == 10
