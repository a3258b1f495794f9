"""File formats and the observed-log projection.

The ground-truth trace is a sidecar: the observed log deliberately carries
only what a logging mechanism would have seen (labels, timestamps, recorded
objects), with every link back to the model stripped.  Formats are versioned
and written atomically (temp file + rename) so failures never leave partial
output behind.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
import threading
from dataclasses import dataclass

from .nets import OBJECT_SEPARATOR, Net
from .serialize import (SCHEMA_VERSION, canonical_json, net_from_dict,
                        net_to_dict, provenance_from_dict, provenance_to_dict,
                        text_digest)
from .simulate import FiringRecord, GroundTruthTrace, epoch_seconds, timestamp_at
from .timing import NUMBER, ConfigInvalid, ReportRule, slot_init, typed


class ParseError(Exception):
    def __init__(self, message: str, path: str = "", line: int | None = None):
        self.path = path
        self.line = line
        at = f" at {path}" + (f":{line}" if line is not None else "") if path else ""
        super().__init__(message + at)


class SchemaVersionMismatch(Exception):
    pass


def atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def check_version(d, path: str):
    v = d.get("schema_version") if type(d) is dict else None
    if v != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"{path}: schema_version {v!r}, expected {SCHEMA_VERSION!r}")


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _parse_json(text: str, path: str):
    """The JSON document `text`, read from `path`; a syntax error becomes a
    ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, path, e.lineno) from None


def load_json(path: str):
    """The one JSON document in `path`; a syntax error becomes a ParseError."""
    return _parse_json(_read_text(path), path)


# decodes one JSON value at the start of a string, without `json.loads`'s
# per-call checks; `read_jsonl` makes those itself
_raw_decode = json.JSONDecoder().raw_decode


def read_jsonl(path: str):
    """Yield (line number, object) for each non-blank line of a JSONL file.

    A line that is not valid JSON, or not a JSON object, raises ParseError
    with the message `json.loads` gives for the line.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line[0] == "\ufeff":
                raise ParseError("Unexpected UTF-8 BOM (decode using utf-8-sig)", path, lineno)
            try:
                d, end = _raw_decode(line)
            except json.JSONDecodeError as e:
                raise ParseError(e.msg, path, lineno) from None
            if end != len(line):  # the stripped line ends in no JSON whitespace
                raise ParseError("Extra data", path, lineno)
            if type(d) is not dict:
                raise ParseError("line is not a JSON object", path, lineno)
            yield lineno, d


def _read_headed_jsonl(path: str, kind: str, decode_header, decode_line):
    """Decode a JSONL file whose first line is a header of the given kind.

    A missing or mistyped field becomes a ParseError naming path:line.
    """
    lines = read_jsonl(path)
    lineno, header = next(lines, (1, None))
    if header is None or header.get("kind") != kind:
        raise ParseError(f"missing {kind} header", path, 1)
    check_version(header, path)
    try:
        head = decode_header(header)
        body = []
        for lineno, d in lines:
            body.append(decode_line(d))
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed {kind} line: {e!r}", path, lineno) from None
    return head, tuple(body)


# -- models -----------------------------------------------------------------

def encode_model(net: Net) -> tuple[str, str]:
    """model.json's text for `net` and `net_digest(net)`, from one encoding."""
    body = canonical_json(net_to_dict(net))
    return body + "\n", text_digest(body)


def write_model(net: Net, path: str) -> None:
    atomic_write(path, encode_model(net)[0])


# how many models `read_model` keeps, one per distinct file text
_MODELS_HELD = 64
_models: dict[str, Net] = {}  # file text -> its Net, least recently read first
_models_lock = threading.Lock()


def read_model(path: str) -> Net:
    """The model in `path`.

    Files with equal text give one shared Net, built on the first read and
    kept for the last `_MODELS_HELD` distinct texts, so its compiled rules
    serve every later reader.  The Net is read-only: copy a marking (for
    instance `net.initial_marking.copy()`) before changing it.  A file that
    fails to read raises on every read; nothing is kept for it.
    """
    text = _read_text(path)
    with _models_lock:
        net = _models.pop(text, None)
        if net is not None:
            _models[text] = net
            return net
    d = _parse_json(text, path)
    check_version(d, path)
    try:
        net = net_from_dict(d)
    except (KeyError, TypeError, ConfigInvalid) as e:
        raise ParseError(f"malformed model: {e!r}", path) from None
    with _models_lock:
        net = _models.setdefault(text, net)  # another thread may have read it meanwhile
        if len(_models) > _MODELS_HELD:
            del _models[next(iter(_models))]
    return net


# -- ground-truth traces ------------------------------------------------------

# encodes a dict whose keys, at every level, are in sorted order as
# `canonical_json` does, without sorting them again
_IN_KEY_ORDER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)


def record_to_dict(r: FiringRecord) -> dict:
    """The record's JSON object, keys in sorted order (tuples encode as lists)."""
    return {
        "activity": r.activity,
        "coarsen_window": r.coarsen_window,
        "consumed": r.consumed,
        "fresh": r.fresh,
        "produced": r.produced,
        "provenance": provenance_to_dict(r.provenance),
        "recorded_objects": r.recorded_objects,
        "seq_no": r.seq_no,
        "time": r.time,
        "timing_causes": r.timing_causes,
        "transition": r.transition,
        "values": r.values,
    }


def _identifiers(value, what: str, problems: list) -> tuple[str, ...]:
    """`value`, a JSON list of strings, as a tuple.  A value that is not
    iterable raises TypeError as `tuple` does; for any other value that is
    not a list of strings, a message naming `what` joins `problems`."""
    ids = tuple(value)
    if type(value) is list:
        for ident in ids:
            if type(ident) is not str:
                break
        else:
            return ids
    problems.append(f"{what!r} must be a list of strings, got {value!r}")
    return ids


def _bound_pairs(value, what: str, problems: list) -> tuple[tuple[str, str], ...]:
    """`value`, a JSON list of [variable, identifier] pairs, as a tuple of
    pairs.  An entry of another length raises ValueError as unpacking does;
    for an entry that is not a pair of strings, a message naming `what`
    joins `problems`."""
    pairs = []
    for pair in value:
        k, v = pair
        if type(pair) is not list or type(k) is not str or type(v) is not str:
            problems.append(f"{what!r} must be a list of [variable, identifier] string pairs, "
                            f"got {value!r}")
        pairs.append((k, v))
    return tuple(pairs)


def record_from_dict(d: dict, tags: dict | None = None) -> FiringRecord:
    """Decode a trace record; a missing or mistyped field raises
    ConfigInvalid, ValueError or TypeError.  The type checks on identifiers
    and provenance come last, so a record with several defects reports the
    one an unchecked decode trips over first.  Records decoded with one
    `tags` table (a file's) share their equal provenance tags."""
    get = d.get
    problems: list = []
    seq_no, time = typed(d, "seq_no", (int,)), typed(d, "time", NUMBER)
    transition = typed(d, "transition", (str,))
    values = _bound_pairs(get("values", []), "values", problems)
    fresh = _bound_pairs(get("fresh", []), "fresh", problems)
    try:
        provenance = provenance_from_dict(get("provenance", {}), tags)
    except ConfigInvalid as e:
        problems.append(str(e))
        provenance = None
    consumed = tuple([(pid, _identifiers(tok, "consumed", problems))
                      for pid, tok in get("consumed", [])])
    produced = tuple([(pid, _identifiers(tok, "produced", problems), avail)
                      for pid, tok, avail in get("produced", [])])
    record = FiringRecord(
        seq_no, time, transition, get("activity"), values, fresh, provenance, consumed,
        produced, _identifiers(get("recorded_objects", []), "recorded_objects", problems),
        get("coarsen_window"), _identifiers(get("timing_causes", []), "timing_causes", problems))
    if problems:
        raise ValueError(problems[0])
    return record


def trace_to_dicts(trace: GroundTruthTrace) -> list[dict]:
    header = {
        "schema_version": SCHEMA_VERSION,
        "kind": "ground_truth_trace",
        "run_id": trace.run_id,
        "seed": trace.seed,
        "epoch": trace.epoch,
        "model_digests": trace.model_digests,
        "config_digest": trace.config_digest,
        "object_types": trace.object_types,
        "pattern_stats": trace.pattern_stats,
        "report_rules": [r.to_dict() for r in trace.report_rules],
        "termination": trace.termination,
        "final_time": trace.final_time,
        "injected": [[pid, list(tok)] for pid, tok in trace.injected],
    }
    return [header] + [record_to_dict(r) for r in trace.records]


def write_trace(trace: GroundTruthTrace, path: str) -> None:
    header, *records = trace_to_dicts(trace)
    encode = _IN_KEY_ORDER.encode
    lines = [canonical_json(header)] + [encode(d) for d in records]
    atomic_write(path, "\n".join(lines) + "\n")


def _report_rules(value, problems: list) -> tuple[ReportRule, ...]:
    """`value`, a JSON list of report rules, decoded.  A rule's KeyError or
    TypeError is raised; a message for any other defect joins `problems`."""
    if type(value) is not list:
        problems.append(f"'report_rules' must be a list, got {value!r}")
    rules = []
    for d in value:
        try:
            rules.append(ReportRule.from_dict(d))
        except ConfigInvalid as e:
            problems.append(str(e))
    return tuple(rules)


def _trace_header(h: dict) -> dict:
    """The header's fields.  As in `record_from_dict`, the checks that its
    maps are objects, its injected tokens lists of strings and its report
    rules well typed come last, in that order."""
    problems: list = []
    rule_problems: list = []
    header = dict(
        run_id=typed(h, "run_id", (str,)),
        seed=typed(h, "seed", (int,)),
        epoch=typed(h, "epoch", (str,)),
        model_digests=h.get("model_digests", {}),
        config_digest=h.get("config_digest", ""),
        object_types=h.get("object_types", {}),
        pattern_stats=h.get("pattern_stats", {}),
        report_rules=_report_rules(h.get("report_rules", []), rule_problems),
        termination=h.get("termination", ""),
        final_time=h.get("final_time", 0.0),
        injected=tuple([(pid, _identifiers(tok, "injected", problems))
                        for pid, tok in h.get("injected", [])]),
    )
    for key in ("model_digests", "object_types", "pattern_stats"):
        typed(h, key, (dict,), {})
    problems += rule_problems
    if problems:
        raise ValueError(problems[0])
    return header


def read_trace(path: str, net: Net | None = None) -> GroundTruthTrace:
    tags: dict = {}
    header, records = _read_headed_jsonl(path, "ground_truth_trace", _trace_header,
                                         lambda d: record_from_dict(d, tags))
    if net is not None:
        for i, r in enumerate(records):
            if r.transition not in net.transition_map:
                raise ParseError(f"record references unknown transition {r.transition!r}",
                                 path, i + 2)
    return GroundTruthTrace(records=records, **header)


# -- observed logs -------------------------------------------------------------

@slot_init
@dataclass(frozen=True, slots=True)
class ObservedEvent:
    event_id: str
    timestamp: str
    activity: str
    objects: tuple[str, ...]
    run_id: str

    def to_dict(self) -> dict:
        """The event's JSON object, keys in sorted order."""
        return {"activity": self.activity, "event_id": self.event_id,
                "objects": list(self.objects), "run_id": self.run_id,
                "timestamp": self.timestamp}

    @classmethod
    def from_dict(cls, d: dict) -> "ObservedEvent":
        """Decode an event; a missing or mistyped field raises ConfigInvalid,
        ValueError or TypeError."""
        problems: list = []
        event = cls(typed(d, "event_id", (str,)), typed(d, "timestamp", (str,)),
                    typed(d, "activity", (str,)),
                    _identifiers(d.get("objects", []), "objects", problems),
                    typed(d, "run_id", (str,), ""))
        if problems:
            raise ValueError(problems[0])
        return event


@dataclass(frozen=True)
class ObservedLog:
    """An observed log.  `objects` maps each identifier its events name to its
    object type; it is None when the source does not say, as in log.csv,
    which has no type column."""

    events: tuple[ObservedEvent, ...]
    objects: dict | None
    run_id: str = ""


def event_id_for(run_id: str, seq_no: int) -> str:
    return f"{run_id}-{seq_no:06d}"


def project_observed(trace: GroundTruthTrace) -> ObservedLog:
    """The visible side of a trace: one event per labeled firing, objects per
    record_spec, timestamps coarsened where a coarsening window applies;
    silent firings disappear entirely."""
    rows = []
    for r in trace.records:
        if r.activity is None:
            continue
        eta = r.time
        if r.coarsen_window:
            eta = math.floor(eta / r.coarsen_window) * r.coarsen_window
        rows.append((eta, r.seq_no, r))
    rows.sort(key=lambda row: (row[0], row[1]))  # ties keep true order
    epoch_s = epoch_seconds(trace.epoch)
    events = tuple(
        ObservedEvent(
            event_id=event_id_for(trace.run_id, seq_no),
            timestamp=timestamp_at(epoch_s, eta),
            activity=r.activity,
            objects=r.recorded_objects,
            run_id=trace.run_id,
        )
        for eta, seq_no, r in rows
    )
    mentioned = {o for e in events for o in e.objects}
    universe = {o: t for o, t in trace.object_types.items() if o in mentioned}
    return ObservedLog(events=events, objects=universe, run_id=trace.run_id)


def write_observed_jsonl(log: ObservedLog, path: str) -> None:
    if log.objects is None:
        raise ValueError("log.jsonl gives each object's type; this log's types are unknown")
    header = {"schema_version": SCHEMA_VERSION, "kind": "observed_log",
              "run_id": log.run_id, "objects": dict(sorted(log.objects.items()))}
    encode = _IN_KEY_ORDER.encode
    lines = [canonical_json(header)] + [encode(e.to_dict()) for e in log.events]
    atomic_write(path, "\n".join(lines) + "\n")


def read_observed_jsonl(path: str) -> ObservedLog:
    header, events = _read_headed_jsonl(
        path, "observed_log",
        lambda h: dict(objects=h.get("objects", {}), run_id=h.get("run_id", "")),
        ObservedEvent.from_dict)
    return ObservedLog(events=events, **header)


CSV_FIELDS = ("event_id", "timestamp", "activity", "objects", "run_id")


def write_observed_csv(log: ObservedLog, path: str) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_FIELDS)
    for e in log.events:
        writer.writerow([e.event_id, e.timestamp, e.activity,
                         OBJECT_SEPARATOR.join(e.objects), e.run_id])
    atomic_write(path, buf.getvalue())


def read_observed_csv(path: str) -> ObservedLog:
    events = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty csv", path, 1) from None
        if tuple(header) != CSV_FIELDS:
            raise ParseError(f"unexpected csv header {header!r}", path, 1)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(CSV_FIELDS):
                raise ParseError(f"expected {len(CSV_FIELDS)} columns, got {len(row)}",
                                 path, lineno)
            event_id, timestamp, activity, objects, run_id = row
            events.append(ObservedEvent(
                event_id, timestamp, activity,
                tuple(o for o in objects.split(OBJECT_SEPARATOR) if o), run_id))
    return ObservedLog(events=tuple(events), objects=None,
                       run_id=events[0].run_id if events else "")


# -- small json documents -------------------------------------------------------

def json_text(doc: dict) -> str:
    """The file text of a small JSON document: `doc` under the schema version."""
    return canonical_json({"schema_version": SCHEMA_VERSION, **doc}) + "\n"


def write_json(doc: dict, path: str) -> None:
    atomic_write(path, json_text(doc))


def read_json(path: str) -> dict:
    d = load_json(path)
    check_version(d, path)
    return d
