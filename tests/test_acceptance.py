"""Acceptance criteria, one test per criterion.

Each test prints a PASS line with its measured runtime; tolerances and
budgets are pinned here, not configurable.
"""
import math
import os
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from logforge import fixtures, logio
from logforge.dataset import GridSpec, cell_seed, generate
from logforge.nets import bounded_language, enabled_bindings
from logforge.oracle import gt_alignment, move_distance
from logforge.serialize import net_to_dict
from logforge.simulate import WeightSpec, run, sample_firing, trace_replays
from logforge.transform import apply, apply_sequence

import mini_nets

EPS = 0.05
TARGET = EPS / (1.0 + EPS)


def report(name: str, elapsed: float, budget: float, detail: str = ""):
    print(f"PASS {name}: {elapsed:.2f}s (budget {budget:.0f}s) {detail}")
    assert elapsed < budget


@pytest.fixture(scope="module")
def package_dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("acceptance_pkg"))
    net, grid = fixtures.fixture("package_delivery")
    t0 = time.monotonic()
    manifest = generate(net, grid, out)
    elapsed = time.monotonic() - t0
    return net, grid, manifest, out, elapsed


def test_c1_package_dataset_reproduction(package_dataset):
    net, grid, manifest, out, elapsed = package_dataset
    assert len(manifest.cells) == 12
    for entry in manifest.cells:
        assert entry["status"] == "ok"
        assert entry["object_counts"].get("package") == 2
        designated = set(entry["application_ids"])
        counts = entry["pattern_counts"]
        assert all(counts[a]["fired"] >= 1 for a in designated), entry["cell_id"]
        trace = logio.read_trace(os.path.join(out, entry["paths"]["trace"]))
        tagged = {r.provenance.application_id for r in trace.records
                  if r.provenance.application_id}
        tagged |= {a for r in trace.records for a in r.timing_causes}
        assert tagged <= designated  # zero occurrences of any other pattern
    report("criterion 1 (twelve isolated package logs)", elapsed, 10.0,
           f"cells={len(manifest.cells)}")


def test_c2_categorical_sampling_law():
    from scipy import stats
    t0 = time.monotonic()
    net = mini_nets.mini_chain()  # reuse its types; build a 3-way choice inline
    from logforge.nets import Arc, Marking, Net, ObjectType, Place, Transition, Variable
    x = Variable("x", "tok")
    names = ("a", "b", "c")
    nn = Net(
        (ObjectType("tok", "t"),),
        (Place("p", ("tok",)),),
        tuple(Transition(n, n) for n in names),
        tuple(a for n in names for a in (Arc("p", n, (x,)), Arc(n, "p", (x,)))),
        Marking.of({"p": [["t_1"]]}),
    )
    enabled = enabled_bindings(nn, nn.initial_marking)
    weights = WeightSpec(schedule={"a": [(0.0, 1.0)], "b": [(0.0, 1.0)], "c": [(0.0, 2.0)]})
    rng = np.random.default_rng(20240404)
    n = 10_000
    counts = Counter(sample_firing(enabled, weights, 0.0, rng)[0] for _ in range(n))
    for tid, p in (("a", 0.25), ("b", 0.25), ("c", 0.5)):
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(counts[tid] - n * p) <= 3 * sigma, (tid, counts[tid])
    chi = stats.chisquare([counts["a"], counts["b"], counts["c"]],
                          [0.25 * n, 0.25 * n, 0.5 * n])
    assert chi.pvalue > 0.001
    report("criterion 2 (weighted sampling law)", time.monotonic() - t0, 1.0,
           f"freqs={[counts[t] / n for t in names]} p={chi.pvalue:.3f}")


def test_c3_additivity_for_every_pattern():
    t0 = time.monotonic()
    base_langs = {}
    for name, net, app in mini_nets.additivity_cases():
        if id(net) not in base_langs:
            base_langs[id(net)] = bounded_language(net, 4)
        transformed = apply(net, app)
        assert base_langs[id(net)] <= bounded_language(transformed, 4), name
    report("criterion 3 (additivity, all sixteen patterns)", time.monotonic() - t0, 60.0)


def test_c4_superset_and_commutativity():
    t0 = time.monotonic()
    for name, net, app in mini_nets.additivity_cases():
        out = apply(net, app)
        before = net_to_dict(net)
        after = net_to_dict(out)
        places = {p["id"]: p for p in after["places"]}
        transitions = {t["id"]: t for t in after["transitions"]}
        for p in before["places"]:
            assert places[p["id"]] == p, name
        for t in before["transitions"]:
            assert transitions[t["id"]] == t, name
        for arc in before["arcs"]:
            assert arc in after["arcs"], name

    net, grid = fixtures.fixture("package_delivery")
    by_id = {s[0].application_id: s[0] for s in grid.behavioral_sets if s}
    for a, b in (("bi5", "bi7"), ("bi3", "bi9"), ("bi2", "bi10")):
        one, _ = apply_sequence(net, [by_id[a], by_id[b]])
        two, _ = apply_sequence(net, [by_id[b], by_id[a]])
        assert mini_nets.net_canonical_digest(one) == mini_nets.net_canonical_digest(two), (a, b)
    report("criterion 4 (superset and commutativity)", time.monotonic() - t0, 5.0)


def test_c5_bytewise_determinism(tmp_path):
    import hashlib

    def digest_dir(root):
        out = {}
        for dirpath, _, files in os.walk(root):
            for f in sorted(files):
                path = os.path.join(dirpath, f)
                rel = os.path.relpath(path, root)
                out[rel] = hashlib.sha256(open(path, "rb").read()).hexdigest()
        return out

    net, grid = fixtures.fixture("package_delivery")
    t0 = time.monotonic()
    generate(net, grid, str(tmp_path / "one"))
    generate(net, grid, str(tmp_path / "two"))
    elapsed = time.monotonic() - t0
    one, two = digest_dir(tmp_path / "one"), digest_dir(tmp_path / "two")
    assert one == two and len(one) > 12 * 5
    report("criterion 5 (bytewise determinism)", elapsed, 20.0,
           f"files={len(one)}")


def test_c6_frequency_control_energy():
    t0 = time.monotonic()
    net, grid = fixtures.fixture("energy_contract")
    assert grid.sim_configs[0].arrivals[0].count >= 2000
    ms, _ = apply_sequence(net, grid.behavioral_sets[0])
    ml, _ = apply_sequence(ms, grid.recording_sets[0])
    config = replace(grid.sim_configs[0],
                     seed=cell_seed(grid.master_seed, 0, 0, 0), run_id="energy")
    trace = run(ml, config)
    meter_firings = sum(1 for r in trace.records if r.transition == "add_meter")
    measured = {}
    for app, stats in trace.pattern_stats.items():
        if app == "e_bi11":
            # Bernoulli choice per firing of the slowed transition
            measured[app] = stats["fired"] / meter_firings
        else:
            assert stats["choice_points"] > 0, app
            measured[app] = stats["chosen"] / stats["choice_points"]
    for app, frac in measured.items():
        assert abs(frac - TARGET) <= 0.02, (app, frac, TARGET)
    report("criterion 6 (frequency control, energy fixture)", time.monotonic() - t0,
           60.0, f"target={TARGET:.4f} worst={max(abs(f - TARGET) for f in measured.values()):.4f}")


def test_c7_oracle_coverage(package_dataset, tmp_path):
    net, grid, manifest, out, _ = package_dataset
    t0 = time.monotonic()
    m0 = logio.read_model(os.path.join(out, "m0.json"))
    for entry in manifest.cells:
        trace = logio.read_trace(os.path.join(out, entry["paths"]["trace"]))
        log = logio.read_observed_jsonl(os.path.join(out, entry["paths"]["log_jsonl"]))
        al = gt_alignment(m0, trace, log)
        assert al.covered_event_ids() == {e.event_id for e in log.events}, entry["cell_id"]
        if entry["cell_id"] == "b6-r6-c0":  # the depot-order recording error
            pairs = [(m.kind, m.activity) for m in al.system if m.cause]
            assert ("log", "order depot") in pairs and ("model", "order home") in pairs

    clean_grid = GridSpec(behavioral_sets=[[]], recording_sets=[[]],
                          sim_configs=[grid.sim_configs[0]], master_seed=grid.master_seed)
    clean_manifest = generate(m0, clean_grid, str(tmp_path / "clean"))
    entry = clean_manifest.cells[0]
    trace = logio.read_trace(os.path.join(str(tmp_path / "clean"), entry["paths"]["trace"]))
    log = logio.read_observed_jsonl(
        os.path.join(str(tmp_path / "clean"), entry["paths"]["log_jsonl"]))
    al = gt_alignment(m0, trace, log)
    assert {m.kind for m in al.system} == {"synchronous"}
    assert move_distance(al, al) == 0.0
    report("criterion 7 (oracle coverage and clean-cell law)", time.monotonic() - t0, 10.0)


def test_c8_replayability_and_count_law(package_dataset):
    net, grid, manifest, out, _ = package_dataset
    t0 = time.monotonic()
    for entry in manifest.cells:
        ml = logio.read_model(os.path.join(out, entry["paths"]["model"]))
        trace = logio.read_trace(os.path.join(out, entry["paths"]["trace"]), net=ml)
        log = logio.read_observed_jsonl(os.path.join(out, entry["paths"]["log_jsonl"]))
        assert trace_replays(ml, trace), entry["cell_id"]
        projected = logio.project_observed(trace)
        assert projected.events == log.events
        assert len(log.events) == len(trace.labeled_records())
    report("criterion 8 (replayability and projection count law)",
           time.monotonic() - t0, 10.0)
