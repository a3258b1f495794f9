import json
import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logforge import fixtures, logio
from logforge.nets import Net, Transition
from logforge.serialize import digest_of, net_digest
from logforge.simulate import SimConfig, epoch_seconds, run, timestamp_at


def test_model_round_trip(tmp_path, package_cells):
    for item in (package_cells[0], package_cells[6]):
        path = str(tmp_path / "model.json")
        logio.write_model(item["ml"], path)
        back = logio.read_model(path)
        assert net_digest(back) == net_digest(item["ml"])


def test_trace_round_trip(tmp_path, package_cells):
    trace = package_cells[0]["trace"]
    path = str(tmp_path / "trace.gt.jsonl")
    logio.write_trace(trace, path)
    back = logio.read_trace(path)
    assert digest_of(logio.trace_to_dicts(back)) == digest_of(logio.trace_to_dicts(trace))
    assert back.records == trace.records
    assert back.pattern_stats == trace.pattern_stats


def test_observed_round_trip_and_csv_cross_parse(tmp_path, package_cells):
    log = package_cells[3]["log"]
    jpath, cpath = str(tmp_path / "log.jsonl"), str(tmp_path / "log.csv")
    logio.write_observed_jsonl(log, jpath)
    logio.write_observed_csv(log, cpath)
    from_jsonl = logio.read_observed_jsonl(jpath)
    from_csv = logio.read_observed_csv(cpath)
    assert from_jsonl.events == log.events
    assert from_jsonl.objects == log.objects
    assert from_csv.events == from_jsonl.events  # same order, same multiset


def test_projection_drops_silent_firings(cell_by_pattern):
    item = cell_by_pattern("bi3")
    trace, log = item["trace"], item["log"]
    skips = [r for r in trace.records if r.transition.startswith("tau_skip_ring")]
    assert skips
    rings = [e for e in log.events if e.activity == "ring"]
    ring_firings = [r for r in trace.records if r.transition == "ring"]
    assert len(rings) == len(ring_firings) < len(ring_firings) + len(skips)


def test_projection_count_law(package_cells):
    for item in package_cells:
        assert len(item["log"].events) == len(item["trace"].labeled_records())


def test_projection_respects_record_spec(cell_by_pattern):
    item = cell_by_pattern("rimo")
    trace, log = item["trace"], item["log"]
    missing = [r for r in trace.records if r.transition.startswith("load_missing")]
    assert missing
    by_id = {e.event_id: e for e in log.events}
    for r in missing:
        event = by_id[logio.event_id_for(trace.run_id, r.seq_no)]
        types = {trace.object_types[o] for o in event.objects}
        assert "van" not in types
        assert types == {"package", "warehouse_employee"}


def test_projection_coarsens_timestamps(cell_by_pattern):
    item = cell_by_pattern("rimp")
    trace, log = item["trace"], item["log"]
    coarse = [r for r in trace.records if r.coarsen_window]
    assert coarse
    by_id = {e.event_id: e for e in log.events}
    epoch_s = epoch_seconds(trace.epoch)
    for r in coarse:
        event = by_id[logio.event_id_for(trace.run_id, r.seq_no)]
        floored = math.floor(r.time / r.coarsen_window) * r.coarsen_window
        assert event.timestamp == timestamp_at(epoch_s, floored)
        # idempotent: flooring a floored value changes nothing
        assert math.floor(floored / r.coarsen_window) * r.coarsen_window == floored


def test_observed_log_sorted_with_stable_ties(package_cells):
    for item in package_cells:
        stamps = [e.timestamp for e in item["log"].events]
        assert stamps == sorted(stamps)
        for a, b in zip(item["log"].events, item["log"].events[1:]):
            if a.timestamp == b.timestamp:
                assert a.event_id < b.event_id  # true order preserved on ties


def test_empty_log_from_silent_net():
    net = fixtures.mini_chain()
    silent = Net(net.object_types, net.places,
                 tuple(Transition(t.id) for t in net.transitions),
                 net.arcs, net.initial_marking)
    trace = run(silent, SimConfig(seed=0, firing_limit=10))
    assert trace.records and all(r.activity is None for r in trace.records)
    log = logio.project_observed(trace)
    assert log.events == ()


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(logio.ParseError):
        logio.read_model(str(path))


def test_trace_with_unknown_transition_is_rejected(tmp_path, package_cells):
    item = package_cells[0]
    path = str(tmp_path / "trace.gt.jsonl")
    logio.write_trace(item["trace"], path)
    lines = open(path).read().splitlines()
    doc = json.loads(lines[1])
    doc["transition"] = "ghost"
    lines[1] = json.dumps(doc)
    (tmp_path / "bad.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(logio.ParseError):
        logio.read_trace(str(tmp_path / "bad.jsonl"), net=item["ml"])
    # without a net the reference is not checked
    logio.read_trace(str(tmp_path / "bad.jsonl"))


def test_schema_version_mismatch(tmp_path, package_cells):
    path = str(tmp_path / "model.json")
    logio.write_model(package_cells[0]["ml"], path)
    doc = json.load(open(path))
    doc["schema_version"] = "999"
    open(path, "w").write(json.dumps(doc))
    with pytest.raises(logio.SchemaVersionMismatch):
        logio.read_model(path)


def test_atomic_write_replaces_only_on_success(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old")
    logio.atomic_write(str(target), "new")
    assert target.read_text() == "new"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []


@given(st.floats(min_value=0, max_value=10**9), st.sampled_from([60.0, 3600.0, 86400.0]))
def test_coarsening_idempotent_and_monotone(eta, window):
    floored = math.floor(eta / window) * window
    assert math.floor(floored / window) * window == floored
    assert floored <= eta
