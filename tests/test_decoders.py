"""The JSONL decoders against a reference decode built on `json.loads` and the
public constructors, over every cell of the three fixtures."""
import copy
import json
import operator
import os
import pickle
import random
from dataclasses import fields, replace
from functools import reduce

import pytest

from logforge import logio, oracle
from logforge.logio import ObservedEvent, ObservedLog
from logforge.nets import ProvenanceTag
from logforge.oracle import Cause, Move
from logforge.serialize import canonical_json, provenance_from_dict
from logforge.simulate import FiringRecord, GroundTruthTrace
from logforge.timing import ReportRule


def json_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def reference_trace(path) -> GroundTruthTrace:
    header, *records = json_lines(path)
    return GroundTruthTrace(
        run_id=header["run_id"], seed=header["seed"], epoch=header["epoch"],
        records=tuple(FiringRecord(
            seq_no=d["seq_no"], time=d["time"], transition=d["transition"],
            activity=d["activity"],
            values=tuple(tuple(pair) for pair in d["values"]),
            fresh=tuple(tuple(pair) for pair in d["fresh"]),
            provenance=ProvenanceTag(**d["provenance"]),
            consumed=tuple((pid, tuple(tok)) for pid, tok in d["consumed"]),
            produced=tuple((pid, tuple(tok), avail) for pid, tok, avail in d["produced"]),
            recorded_objects=tuple(d["recorded_objects"]),
            coarsen_window=d["coarsen_window"],
            timing_causes=tuple(d["timing_causes"]),
        ) for d in records),
        model_digests=header["model_digests"], config_digest=header["config_digest"],
        object_types=header["object_types"], pattern_stats=header["pattern_stats"],
        report_rules=tuple(ReportRule.from_dict(r) for r in header["report_rules"]),
        termination=header["termination"], final_time=header["final_time"],
        injected=tuple((pid, tuple(tok)) for pid, tok in header["injected"]),
    )


def reference_log(path) -> ObservedLog:
    header, *events = json_lines(path)
    return ObservedLog(
        events=tuple(ObservedEvent(d["event_id"], d["timestamp"], d["activity"],
                                   tuple(d["objects"]), d["run_id"]) for d in events),
        objects=header["objects"], run_id=header["run_id"])


def reference_per_object(path) -> dict:
    grouped: dict = {}
    for d in json_lines(path):
        c = d.get("cause")
        move = Move(d["kind"], d["activity"], tuple(d["objects"]), d.get("event_id"),
                    d.get("transition"),
                    Cause(c["pattern_code"], c["application_id"], c["origin"]) if c else None,
                    d.get("discrepancy"))
        grouped.setdefault(d["object"], []).append((d["seq"], move))
    return {obj: tuple(m for _, m in sorted(pairs, key=lambda p: p[0]))
            for obj, pairs in grouped.items()}


def assert_same(a, b):
    """`a` and `b` are of one type and equal field by field.  A dataclass
    equals only one of its own class, and a list never equals a tuple, so
    this holds inside each field too."""
    assert type(a) is type(b)
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert type(x) is type(y) and x == y, (f.name, x, y)


@pytest.fixture(scope="module")
def fixture_cells(fixture_datasets, write_v1_alignment):
    """Per cell of the three fixtures: its files, with the cell's ground-truth
    alignment written as a schema "1" file (`alignment`) and as `oracle align`
    writes it (`alignment_v2`), and the alignment itself (`gt`)."""
    cells = []
    for out, manifest in fixture_datasets.values():
        m0 = logio.read_model(os.path.join(out, "m0.json"))
        for entry in manifest.cells:
            paths = {key: os.path.join(out, rel) for key, rel in entry["paths"].items()}
            cell_dir = os.path.join(out, "cells", entry["cell_id"])
            paths["alignment"] = os.path.join(cell_dir, "gt.v1.jsonl")
            paths["alignment_v2"] = os.path.join(cell_dir, "gt.jsonl")
            gt = oracle.gt_alignment(m0, logio.read_trace(paths["trace"]),
                                     logio.read_observed_jsonl(paths["log_jsonl"]))
            write_v1_alignment(gt, paths["alignment"])
            oracle.write_alignment(gt, paths["alignment_v2"])
            cells.append({**paths, "gt": gt})
    return cells


def test_decoders_match_the_reference_on_every_fixture_cell(fixture_cells):
    assert len(fixture_cells) >= 14
    for paths in fixture_cells:
        trace, expected = logio.read_trace(paths["trace"]), reference_trace(paths["trace"])
        assert_same(trace, expected)
        # equal provenance tags of one file are one object
        assert len({id(r.provenance) for r in trace.records}) == \
            len({r.provenance for r in trace.records})

        log, expected_log = (logio.read_observed_jsonl(paths["log_jsonl"]),
                             reference_log(paths["log_jsonl"]))
        assert_same(log, expected_log)

        alignment = oracle.read_alignment(paths["alignment"])
        expected_moves = reference_per_object(paths["alignment"])
        assert alignment.system is None and list(alignment.per_object) == list(expected_moves)
        assert alignment.per_object == expected_moves
        causes = [m.cause for moves in alignment.per_object.values() for m in moves if m.cause]
        assert len({id(c) for c in causes}) == len(set(causes))

        # a schema "2" file gives back the whole alignment, `system` too
        systemic, gt = oracle.read_alignment(paths["alignment_v2"]), paths["gt"]
        assert systemic.system == gt.system
        assert list(systemic.per_object) == list(gt.per_object) == list(expected_moves)
        assert systemic.per_object == gt.per_object
        # one Move object per line, filed under each of its objects
        assert len({id(m) for moves in systemic.per_object.values() for m in moves}) == \
            len(systemic.system)

        # perfbench's `near` builds candidates with `replace`; a process pool
        # sends values by pickling them
        for value in (trace.records[0], log.events[0], systemic.system[0]):
            for copied in (replace(value), pickle.loads(pickle.dumps(value))):
                assert copied is not value
                assert_same(copied, value)


def test_schema_1_and_2_files_score_bit_identically_on_every_fixture_cell(
        fixture_cells, write_v1_alignment, tmp_path):
    rekind = {"synchronous": "log", "log": "synchronous",
              "model": "silent_model", "silent_model": "model"}
    scored = 0
    for i, paths in enumerate(fixture_cells):
        gt = paths["gt"]
        rng = random.Random(i)
        # a candidate that shares most moves with the ground truth, whose
        # `system` repeats a move once per object, as a checker's may
        near = {obj: tuple(replace(m, kind=rekind[m.kind]) if rng.random() < 0.1 else m
                           for m in moves) for obj, moves in gt.per_object.items()}
        candidate = oracle.GtAlignment(
            system=tuple(m for moves in near.values() for m in moves), per_object=near)
        distances = []
        for write in (write_v1_alignment, oracle.write_alignment):
            cand_path, gt_path = tmp_path / "cand.jsonl", tmp_path / "gt.jsonl"
            write(candidate, str(cand_path))
            write(gt, str(gt_path))
            back = oracle.read_alignment(str(cand_path))
            assert back.per_object == candidate.per_object
            distances.append(oracle.move_distance(back, oracle.read_alignment(str(gt_path))))
        assert distances[0] == distances[1] == oracle.move_distance(candidate, gt)
        scored += distances[0] > 0
    assert len(fixture_cells) >= 14 and scored >= 10


def test_alignment_moves_read_back_in_seq_order_with_ties_in_file_order(tmp_path):
    lines = [{"object": "o", "seq": 2, "kind": "log", "activity": "c"},
             {"object": "o", "seq": 0, "kind": "log", "activity": "a"},
             {"object": "p", "kind": "log", "activity": "x"},  # seq: its line number
             {"object": "o", "seq": 2, "kind": "model", "activity": "d"},
             {"object": "o", "seq": 1, "kind": "log", "activity": "b"}]
    path = tmp_path / "alignment.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in lines))
    per_object = oracle.read_alignment(str(path)).per_object
    assert {obj: [m.activity for m in moves] for obj, moves in per_object.items()} == \
        {"o": ["a", "b", "c", "d"], "p": ["x"]}


# One well-formed line of each kind, every field present.
GOOD_TRACE_HEADER = {
    "schema_version": "1", "kind": "ground_truth_trace", "run_id": "r", "seed": 0,
    "epoch": "2024-03-04T08:00:00Z", "model_digests": {"ml": "d0"}, "config_digest": "d1",
    "object_types": {"o_1": "package", "o_2": "van"}, "pattern_stats": {},
    "report_rules": [{"transition": "t", "responsible": ["x"], "affected": None}],
    "termination": "firing_limit", "final_time": 1.0, "injected": [["p", ["o_1"]]]}
GOOD_TRACE_RECORD = {
    "activity": "a", "coarsen_window": 60.0, "consumed": [["p", ["o_1"]]],
    "fresh": [["y", "o_2"]], "produced": [["q", ["o_1", "o_2"], 1.5]],
    "provenance": {"application_id": "a1", "origin": "behavioral", "pattern_code": "BI_3",
                   "shadow_of": "t0"},
    "recorded_objects": ["o_1"], "seq_no": 0, "time": 0.0, "timing_causes": ["a1"],
    "transition": "t", "values": [["x", "o_1"]]}
GOOD_LOG_HEADER = {"schema_version": "1", "kind": "observed_log", "run_id": "r",
                   "objects": {"o_1": "package"}}
GOOD_LOG_EVENT = {"activity": "a", "event_id": "r-000000", "objects": ["o_1"], "run_id": "r",
                  "timestamp": "2024-03-04T08:00:00Z"}
GOOD_MOVE_LINE = {
    "activity": "a", "cause": {"application_id": "a1", "origin": "deviation",
                               "pattern_code": "RI_in^o"},
    "discrepancy": {"swapped": ["o_1"]}, "event_id": "r-000000", "kind": "synchronous",
    "object": "o_1", "objects": ["o_1"], "seq": 0, "transition": "t"}

ODD_VALUES = [None, True, 5, 1.5, "abc", [], [1], [["p"]], {}]
DELETED = object()

# per reader: the file's good lines, and the reader
FUZZED_FILES = {
    "trace": ([GOOD_TRACE_HEADER, GOOD_TRACE_RECORD], logio.read_trace),
    "log": ([GOOD_LOG_HEADER, GOOD_LOG_EVENT], logio.read_observed_jsonl),
    "alignment": ([GOOD_MOVE_LINE, GOOD_MOVE_LINE], oracle.read_alignment),
}


# per reader: where its nested objects are, as (line number, key, ...)
NESTED = {
    "trace": [(1, "report_rules", 0), (2, "provenance")],
    "alignment": [(1, "cause"), (2, "cause")],
}


def _changed(lines, at, keys, odd):
    """`lines` with the field at `keys` of line `at` replaced by `odd`, or
    deleted."""
    lines = lines[:at - 1] + [copy.deepcopy(lines[at - 1])] + lines[at:]
    *inner, key = keys
    target = reduce(operator.getitem, inner, lines[at - 1])
    del target[key]
    if odd is not DELETED:
        target[key] = odd
    return lines


def fuzzed_inputs():
    """Each good file with one field of one of its lines replaced by each odd
    value, or deleted: (reader, lines, line number of the change, field)."""
    for lines, read in FUZZED_FILES.values():
        for at, good in enumerate(lines, start=1):
            for key in good:
                for odd in ODD_VALUES + [DELETED]:
                    yield read, _changed(lines, at, [key], odd), at, key


def nested_inputs():
    """As `fuzzed_inputs`, for each field of each nested object in NESTED:
    (reader, lines, line number of the change, key path)."""
    for name, places in NESTED.items():
        lines, read = FUZZED_FILES[name]
        for at, *keys in places:
            for key in reduce(operator.getitem, keys, lines[at - 1]):
                for odd in ODD_VALUES + [DELETED]:
                    yield read, _changed(lines, at, keys + [key], odd), at, keys + [key]


def _read_or_reject(path, read, lines, at, key) -> bool:
    """Whether `read` rejects `lines`, written to `path`; a rejection must be
    the version gate or a ParseError naming `path:at`."""
    path.write_text("".join(json.dumps(d) + "\n" for d in lines))
    try:
        read(str(path))
    except logio.SchemaVersionMismatch:
        assert key == "schema_version"  # the version gate, not a field decoder
        return True
    except logio.ParseError as e:
        assert str(e).endswith(f" at {path}:{at}"), (key, lines[at - 1], str(e))
        return True
    return False


def test_every_fuzzed_line_reads_back_or_is_a_parse_error_naming_its_line(tmp_path):
    path = tmp_path / "fuzzed.jsonl"
    for lines, read in FUZZED_FILES.values():
        assert not _read_or_reject(path, read, lines, 0, None)
    outcomes = [_read_or_reject(path, *case) for case in fuzzed_inputs()]
    assert len(outcomes) == 10 * (len(GOOD_TRACE_HEADER) + len(GOOD_TRACE_RECORD)
                                  + len(GOOD_LOG_HEADER) + len(GOOD_LOG_EVENT)
                                  + 2 * len(GOOD_MOVE_LINE))
    assert 0 < sum(outcomes) < len(outcomes)


GOOD_SYSTEMIC_LINES = [
    {"kind": "alignment", "schema_version": "2"},
    {**{k: v for k, v in GOOD_MOVE_LINE.items() if k not in ("object", "seq")},
     "at": [["o_1", 0], ["o_2", 3]]}]


def test_every_fuzzed_systemic_alignment_field_is_checked_as_in_schema_1(tmp_path):
    path = tmp_path / "fuzzed.jsonl"
    read, v1_lines = oracle.read_alignment, FUZZED_FILES["alignment"][0]
    assert not _read_or_reject(path, read, GOOD_SYSTEMIC_LINES, 0, None)
    outcomes: dict = {}
    for at, good in enumerate(GOOD_SYSTEMIC_LINES, start=1):
        for key in good:
            outcomes[at, key] = [
                _read_or_reject(path, read, _changed(GOOD_SYSTEMIC_LINES, at, [key], odd), at, key)
                for odd in ODD_VALUES + [DELETED]]
    # a first line that is not the header reads as a schema "1" line, which
    # has no place
    assert outcomes[1, "kind"] == outcomes[1, "schema_version"] == [True] * 10
    # no odd value is a non-empty list of [object, seq] places
    assert outcomes[2, "at"] == [True] * 10
    for key in GOOD_SYSTEMIC_LINES[1].keys() - {"at"}:
        assert outcomes[2, key] == [
            _read_or_reject(path, read, _changed(v1_lines, 2, [key], odd), 2, key)
            for odd in ODD_VALUES + [DELETED]], key


def test_every_fuzzed_nested_field_reads_back_or_is_a_parse_error_naming_its_line(tmp_path):
    path = tmp_path / "fuzzed.jsonl"
    outcomes: dict = {}
    for read, lines, at, key in nested_inputs():
        outcomes.setdefault((at, *key), []).append(_read_or_reject(path, read, lines, at, key))
    assert len(outcomes) == 4 + 3 + 2 * 3 and all(len(o) == 10 for o in outcomes.values())
    # a tag without its origin would read as base, and "abc" is no origin
    assert outcomes[2, "provenance", "origin"] == [True] * 10
    # a pattern code must name a catalog pattern of the tag's origin
    assert outcomes[2, "provenance", "pattern_code"] == [value is not None and value is not DELETED
                                                         for value in ODD_VALUES + [DELETED]]
    # a created tag (this one is behavioral) names its application
    assert outcomes[2, "provenance", "application_id"] == [value != "abc"
                                                           for value in ODD_VALUES + [DELETED]]
    assert 0 < sum(map(sum, outcomes.values())) < 10 * len(outcomes)


# what the writer writes for a field the line leaves out
RECORD_DEFAULTS = {"activity": None, "values": [], "fresh": [], "provenance": {"origin": "base"},
                   "consumed": [], "produced": [], "recorded_objects": [],
                   "coarsen_window": None, "timing_causes": []}
EVENT_DEFAULTS = {"objects": [], "run_id": ""}


def _as_written(line: dict, defaults: dict) -> dict:
    """`line` with its absent fields at `defaults`, and its provenance
    without null fields, as `record_to_dict` writes it."""
    line = {**defaults, **line}
    if type(line.get("provenance")) is dict:
        line["provenance"] = {k: v for k, v in line["provenance"].items() if v is not None}
    return line


def test_every_accepted_fuzzed_line_writes_back_to_its_canonical_bytes(tmp_path):
    path = tmp_path / "fuzzed.jsonl"
    accepted = 0
    for read, lines, at, key in [*fuzzed_inputs(), *nested_inputs()]:
        if read is oracle.read_alignment or at != 2 or _read_or_reject(path, read, lines, at, key):
            continue
        if read is logio.read_trace:
            [written] = map(logio.record_to_dict, read(str(path)).records)
            defaults = RECORD_DEFAULTS
        else:
            [written] = map(ObservedEvent.to_dict, read(str(path)).events)
            defaults = EVENT_DEFAULTS
        assert canonical_json(written) == canonical_json(_as_written(lines[1], defaults)), key
        accepted += 1
    assert accepted > 20


def test_a_files_provenance_tags_are_checked_once_each():
    seen = []
    tags: dict = {}
    for d in [{"origin": "base"},
              {"origin": "recording", "pattern_code": "RI_mi^e", "application_id": "a1"},
              {"origin": "base"},
              {"pattern_code": "RI_mi^e", "application_id": "a1", "origin": "recording"}]:
        provenance_from_dict(d, tags, seen.append)
    assert seen == [ProvenanceTag(), ProvenanceTag("recording", "RI_mi^e", "a1")]
