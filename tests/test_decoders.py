"""The JSONL decoders against a reference decode built on `json.loads` and the
public constructors, over every cell of the three fixtures."""
import json
import os
from dataclasses import fields

import pytest

from logforge import logio, oracle
from logforge.logio import ObservedEvent, ObservedLog
from logforge.nets import ProvenanceTag
from logforge.oracle import Cause, Move
from logforge.simulate import FiringRecord, GroundTruthTrace
from logforge.timing import Delay, ReportRule, slot_init


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
def fixture_cells(fixture_datasets):
    """Per cell of the three fixtures: its files, with the cell's ground-truth
    alignment written as `oracle align` writes it."""
    cells = []
    for out, manifest in fixture_datasets.values():
        m0 = logio.read_model(os.path.join(out, "m0.json"))
        for entry in manifest.cells:
            paths = {key: os.path.join(out, rel) for key, rel in entry["paths"].items()}
            paths["alignment"] = os.path.join(out, "cells", entry["cell_id"], "gt.jsonl")
            gt = oracle.gt_alignment(m0, logio.read_trace(paths["trace"]),
                                     logio.read_observed_jsonl(paths["log_jsonl"]))
            oracle.write_alignment(gt, paths["alignment"])
            cells.append(paths)
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


@pytest.mark.parametrize("cls", [Delay, ProvenanceTag], ids=["post-init", "no-slots"])
def test_slot_init_refuses_a_class_it_cannot_fill(cls):
    with pytest.raises(TypeError):
        slot_init(cls)


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
