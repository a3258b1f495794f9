import json
import math
import os
import re
import sys
import threading
from dataclasses import replace
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logforge import logio
from logforge.nets import Net, Transition
from logforge.serialize import canonical_json, digest_of, net_digest, net_from_dict
from logforge.simulate import SimConfig, epoch_seconds, run, timestamp_at

import mini_nets


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
    assert digest_of(list(logio.trace_to_dicts(back))) == digest_of(list(logio.trace_to_dicts(trace)))
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


CSV_HEADER = "event_id,timestamp,activity,objects,run_id\n"


@pytest.mark.parametrize("text, message", [
    ("", "empty csv at {path}:1"),
    ("event_id,time,activity,objects,run_id\n",
     "unexpected csv header ['event_id', 'time', 'activity', 'objects', 'run_id'] at {path}:1"),
    (CSV_HEADER + "r-000000,2024-03-04T08:00:00Z,a,o_1,r\nr-000001,2024-03-04T08:00:00Z,a\n",
     "expected 5 columns, got 3 at {path}:3"),
], ids=["empty", "renamed-column", "short-row"])
def test_a_malformed_csv_log_is_a_parse_error_naming_its_line(tmp_path, text, message):
    path = tmp_path / "log.csv"
    path.write_text(CSV_HEADER + "r-000000,2024-03-04T08:00:00Z,a,o_1,r\n")
    assert len(logio.read_observed_csv(str(path)).events) == 1
    path.write_text(text)
    with pytest.raises(logio.ParseError) as caught:
        logio.read_observed_csv(str(path))
    assert str(caught.value) == message.format(path=path)


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


def test_projection_pairs_each_labeled_record_with_its_event(package_cells):
    for item in package_cells:
        pairs = logio.projection(item["trace"])
        assert tuple(e for _, e in pairs) == item["log"].events
        assert (sorted(r.seq_no for r, _ in pairs)
                == [r.seq_no for r in item["trace"].labeled_records()])
        assert all(e.activity == r.activity and e.objects == r.recorded_objects
                   for r, e in pairs)


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


def stamp_by_fromtimestamp(x: float) -> str:
    return datetime.fromtimestamp(x, tz=timezone.utc).isoformat().replace("+00:00", "Z")


# epochs before and after 1970: the fixtures' own, the Unix epoch, 1938 and 2096
EPOCHS = st.sampled_from([epoch_seconds("2024-03-04T08:00:00Z"), 0.0, -1e9, 4e9])
# run times of up to 10^7 s: any float; a decimal half microsecond, which
# floats hold only nearly; and k/128 s, an exact tie once the odd k's
# fraction is in microseconds (7812.5 us per 1/128 s)
RUN_TIMES = st.one_of(
    st.floats(0.0, 1e7),
    st.integers(0, 10**13).map(lambda us: (us + 0.5) / 1e6),
    st.integers(0, 10**7 * 128).map(lambda k: k / 128))


@given(epoch_s=EPOCHS, eta=RUN_TIMES)
@settings(max_examples=2000)
def test_timestamp_at_gives_the_stamp_of_fromtimestamp(epoch_s, eta):
    assert timestamp_at(epoch_s, eta) == stamp_by_fromtimestamp(epoch_s + eta)


@pytest.mark.parametrize("eta", [1e12, -1e12, 253402300800.0, -62135596800.5,
                                 math.inf, -math.inf, math.nan])
def test_timestamp_at_outside_datetimes_range_raises_what_fromtimestamp_raises(eta):
    with pytest.raises(Exception) as expected:
        stamp_by_fromtimestamp(eta)
    with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
        timestamp_at(0.0, eta)


def test_observed_log_sorted_with_stable_ties(package_cells):
    for item in package_cells:
        stamps = [e.timestamp for e in item["log"].events]
        assert stamps == sorted(stamps)
        for a, b in zip(item["log"].events, item["log"].events[1:]):
            if a.timestamp == b.timestamp:
                assert a.event_id < b.event_id  # true order preserved on ties


def test_empty_log_from_silent_net():
    net = mini_nets.mini_chain()
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
     '''malformed model: ConfigInvalid("unknown model key(s) ['plaices']; known keys are '''
     '''['annotations', 'arcs', 'final_marking', 'initial_marking', 'object_types', '''
     ''''places', 'schema_version', 'transitions']") at {path}'''),
    (lambda text: text.replace('"provenance":{"origin":"base"}', '"provenance":[]', 1),
     logio.ParseError,
     """malformed model: ConfigInvalid("'provenance' must be an object, got []") at {path}"""),
    (lambda text: text.replace('"provenance":{"origin":"base"}', '"provenance":{}', 1),
     logio.ParseError,
     """malformed model: ConfigInvalid("'provenance' must hold a string 'origin' and strings """
     """or nulls, got {{}}") at {path}"""),
], ids=["truncated", "wrong_version", "no_places", "list_provenance", "empty_provenance"])
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


def test_a_model_transition_without_provenance_is_base(tmp_path, package_cells):
    good = logio.encode_model(package_cells[0]["ml"])[0]
    path = tmp_path / "model.json"
    bare = good.replace('"provenance":{"origin":"base"},', "")
    assert bare != good
    path.write_text(bare)
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


def _good_event(i: int) -> logio.ObservedEvent:
    return logio.ObservedEvent(f"r-{i:06d}", "2024-03-04T08:00:00Z", "a", ("o_1",), "r")


@pytest.mark.parametrize("write,bad", [
    # canonical_json refuses a set after more good lines than the file buffer holds
    (logio.write_jsonl, [{"seq": i} for i in range(5000)] + [{"seq": {1}}]),
    # a non-string object fails the join after as many good rows
    (logio.write_observed_csv,
     logio.ObservedLog(tuple(map(_good_event, range(5000)))
                       + (logio.ObservedEvent("r-x", "t", "a", ("o_1", 7), "r"),), None, "r")),
], ids=["jsonl", "csv"])
def test_a_streamed_write_that_fails_leaves_the_old_file(tmp_path, write, bad):
    target = tmp_path / "out"
    target.write_bytes(b"old\n")
    with pytest.raises(TypeError):
        write(bad, str(target))
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_link_write_replaces_a_file_with_a_link_and_leaves_no_temporary(tmp_path):
    src, target = tmp_path / "src.json", tmp_path / "out.json"
    src.write_text("new")
    target.write_text("old")
    for _ in range(2):  # the second time, both names already name one file
        logio.link_write(str(src), str(target), "new")
        assert target.read_text() == "new"
        assert target.stat().st_ino == src.stat().st_ino and src.stat().st_nlink == 2
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")] == []


@pytest.mark.parametrize("errno_", [1, 31, 95], ids=["EPERM", "EMLINK", "ENOTSUP"])
def test_link_write_writes_the_text_where_the_link_is_refused(tmp_path, monkeypatch, errno_):
    src = tmp_path / "src.json"
    src.write_text("text")

    def refuse(src, dst, **kwargs):
        raise OSError(errno_, "refused", dst)

    monkeypatch.setattr(logio.os, "link", refuse)
    target = tmp_path / "sub" / "out.json"
    logio.link_write(str(src), str(target), "text")
    assert target.read_text() == "text" and target.stat().st_nlink == 1
    assert [p.name for p in target.parent.iterdir()] == ["out.json"]


@given(st.floats(min_value=0, max_value=10**9), st.sampled_from([60.0, 3600.0, 86400.0]))
def test_coarsening_idempotent_and_monotone(eta, window):
    floored = math.floor(eta / window) * window
    assert math.floor(floored / window) * window == floored
    assert floored <= eta


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_canonical_json_is_json_dumps_with_its_settings(value):
    # the reused C encoder gives what a fresh encoder with the same settings gives
    assert canonical_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"),
                                               ensure_ascii=False)


def test_every_trace_line_is_json_dumps_with_canonical_settings(package_cells):
    for item in package_cells:
        for d in logio.trace_to_dicts(item["trace"]):
            assert canonical_json(d) == json.dumps(d, sort_keys=True, separators=(",", ":"),
                                                   ensure_ascii=False)


def _written_and_read(tmp_path, item, net=None):
    """The item's trace and log, written and read back (the trace with `net`)."""
    trace_path, log_path = str(tmp_path / "trace.gt.jsonl"), str(tmp_path / "log.jsonl")
    logio.write_trace(item["trace"], trace_path)
    logio.write_observed_jsonl(item["log"], log_path)
    return logio.read_trace(trace_path, net=net), logio.read_observed_jsonl(log_path)


def _assert_equal_values_are_one_object(values) -> int:
    """Assert that equal values among `values` are one object; return how
    many values repeat an earlier one."""
    first: dict = {}
    for value in values:
        assert first.setdefault(value, value) is value, value
    return len(values) - len(first)


def test_each_consumed_token_is_the_token_produced_before_it(tmp_path, package_cells):
    shared_tokens = 0
    for item in package_cells:
        trace, _ = _written_and_read(tmp_path, item)
        produced: dict = {}
        for r in trace.records:
            for _, tok in r.consumed:
                if tok in produced:
                    assert tok is produced[tok]
                    shared_tokens += 1
            for _, tok, _ in r.produced:
                assert produced.setdefault(tok, tok) is tok
    assert shared_tokens > 100


@pytest.mark.parametrize("with_net", [False, True])
def test_equal_pairs_transitions_and_recorded_objects_of_a_trace_are_one_object(
        tmp_path, package_cells, with_net):
    repeats = 0
    for item in package_cells:
        trace, _ = _written_and_read(tmp_path, item, item["ml"] if with_net else None)
        records = trace.records
        for values in ([p for r in records for p in r.values + r.fresh],
                       [r.transition for r in records],
                       [r.activity for r in records if r.activity is not None],
                       [r.recorded_objects for r in records]):
            repeats += _assert_equal_values_are_one_object(values)
    assert repeats > 100


def test_a_read_back_log_shares_its_objects_and_run_id(tmp_path, package_cells):
    repeats = 0
    for item in package_cells:
        _, log = _written_and_read(tmp_path, item)
        assert log.events and all(e.run_id is log.run_id for e in log.events)
        repeats += _assert_equal_values_are_one_object([e.objects for e in log.events])
        repeats += _assert_equal_values_are_one_object([e.activity for e in log.events])
    assert repeats > 50


def test_records_and_events_are_never_shared_and_read_write_keeps_every_byte(
        tmp_path, fixture_datasets):
    files = 0
    for out, manifest in fixture_datasets.values():
        for entry in manifest.cells:
            trace_path = os.path.join(out, entry["paths"]["trace"])
            log_path = os.path.join(out, entry["paths"]["log_jsonl"])
            trace, log = logio.read_trace(trace_path), logio.read_observed_jsonl(log_path)
            assert len({id(r) for r in trace.records}) == len(trace.records)
            assert len({id(e) for e in log.events}) == len(log.events)
            logio.write_trace(trace, str(tmp_path / "trace.gt.jsonl"))
            logio.write_observed_jsonl(log, str(tmp_path / "log.jsonl"))
            for written, original in (("trace.gt.jsonl", trace_path), ("log.jsonl", log_path)):
                with open(tmp_path / written, "rb") as a, open(original, "rb") as b:
                    assert a.read() == b.read(), original
                files += 1
    assert files >= 2 * 14
