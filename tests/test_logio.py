import json
import math
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logforge import fixtures, logio
from logforge.nets import Net, Transition
from logforge.serialize import digest_of, net_digest, net_from_dict
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
    # log.csv has no type column: its objects are unknown, not absent
    assert from_csv.objects is None
    with pytest.raises(ValueError, match="types are unknown"):
        logio.write_observed_jsonl(from_csv, jpath)


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


@pytest.fixture
def model_table(monkeypatch):
    """An empty `read_model` table, and a count of the models it parses."""
    monkeypatch.setattr(logio, "_models", {})
    parsed = []

    def counting(d):
        parsed.append(d)
        return net_from_dict(d)

    monkeypatch.setattr(logio, "net_from_dict", counting)
    return parsed


def test_equal_model_bytes_read_as_one_net(tmp_path, package_cells, model_table):
    text = logio.encode_model(package_cells[0]["ml"])[0]
    (tmp_path / "a.json").write_text(text)
    (tmp_path / "b.json").write_text(text)
    first = logio.read_model(str(tmp_path / "a.json"))
    assert logio.read_model(str(tmp_path / "b.json")) is first
    assert logio.read_model(str(tmp_path / "a.json")) is first
    assert len(model_table) == 1


def test_model_rewritten_with_other_bytes_reads_as_a_new_net(tmp_path, package_cells,
                                                             model_table):
    path = tmp_path / "model.json"
    path.write_text(logio.encode_model(package_cells[0]["ml"])[0])
    first = logio.read_model(str(path))
    path.write_text(logio.encode_model(package_cells[6]["ml"])[0])
    second = logio.read_model(str(path))
    assert second is not first and len(model_table) == 2
    assert net_digest(second) == net_digest(package_cells[6]["ml"])


@pytest.mark.parametrize("broken, error, ending", [
    (lambda text: text[:40], logio.ParseError, " at {path}:1"),
    (lambda text: text.replace('"schema_version":"1"', '"schema_version":"9"'),
     logio.SchemaVersionMismatch, "{path}: schema_version '9', expected '1'"),
    (lambda text: text.replace('"places"', '"plaices"'), logio.ParseError,
     "malformed model: KeyError('places') at {path}"),
    (lambda text: text.replace('"provenance":{"origin":"base"}', '"provenance":[]', 1),
     logio.ParseError,
     """malformed model: ConfigInvalid("'provenance' must be an object, got []") at {path}"""),
], ids=["truncated", "wrong_version", "no_places", "list_provenance"])
def test_unreadable_model_fails_on_every_read(tmp_path, package_cells, model_table,
                                              broken, error, ending):
    good = logio.encode_model(package_cells[0]["ml"])[0]
    path = tmp_path / "model.json"
    path.write_text(broken(good))
    messages = []
    for _ in range(2):
        with pytest.raises(error) as caught:
            logio.read_model(str(path))
        messages.append(str(caught.value))
    assert messages[0] == messages[1] and messages[0].endswith(ending.format(path=path))
    assert logio._models == {}
    path.write_text(good)
    assert net_digest(logio.read_model(str(path))) == net_digest(package_cells[0]["ml"])


def test_model_table_keeps_the_most_recently_read(tmp_path, package_cells, model_table):
    # equal JSON in different text is a different key
    text = logio.encode_model(package_cells[0]["ml"])[0]
    paths = []
    for i in range(logio._MODELS_HELD + 3):
        paths.append(tmp_path / f"m{i}.json")
        paths[-1].write_text(text + " " * i)
    nets = [logio.read_model(str(p)) for p in paths]
    assert len(logio._models) == logio._MODELS_HELD
    assert logio.read_model(str(paths[-1])) is nets[-1]
    assert len(model_table) == len(paths)
    assert logio.read_model(str(paths[0])) is not nets[0]
    assert len(logio._models) == logio._MODELS_HELD


def test_model_table_under_concurrent_readers(tmp_path, package_cells, monkeypatch):
    monkeypatch.setattr(logio, "_models", {})
    texts = [logio.encode_model(package_cells[i]["ml"])[0] for i in (0, 6, 9)]
    paths = []
    for i, text in enumerate(texts):
        paths.append(str(tmp_path / f"m{i}.json"))
        open(paths[-1], "w").write(text)
    digests = [net_digest(package_cells[i]["ml"]) for i in (0, 6, 9)]
    seen: dict = {}
    errors = []

    def reader(k):
        try:
            for n in range(30):
                i = (n + k) % len(paths)
                net = logio.read_model(paths[i])
                seen.setdefault(i, set()).add(id(net))
                assert net_digest(net) == digests[i]
        except Exception as e:  # noqa: BLE001 - reported by the main thread
            errors.append(e)

    def run_readers():
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads) and errors == []

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_readers()
        # every reader of one text got the same Net
        assert all(len(ids) == 1 for ids in seen.values()) and len(logio._models) == 3
        # a table smaller than the texts read evicts on nearly every read
        monkeypatch.setattr(logio, "_models", {})
        monkeypatch.setattr(logio, "_MODELS_HELD", 2)
        run_readers()
        assert len(logio._models) == 2
    finally:
        sys.setswitchinterval(interval)


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
