"""File formats and the observed-log projection.

The ground-truth trace is a sidecar: the observed log deliberately carries
only what a logging mechanism would have seen (labels, timestamps, recorded
objects), with every link back to the model stripped.  Formats are versioned
and written atomically (temp file + rename) so failures never leave partial
output behind; a written file gets the mode `open(path, "w")` would give it.
Every JSON document and JSONL line is encoded by `canonical_json`, keys
sorted at every level, and `write_jsonl` writes every JSONL file: the trace,
the observed log and the oracle's alignments.  `write_run` writes a run's
files, under the names only `RUN_FILES` spells.  The readers check each
object's keys before its fields, as the model reader does.  A trace or log
reader keeps one sharing table per file read, so that equal leaves of the
file come back as one object: provenance tags, transitions and activities,
tokens, [variable, identifier] pairs and recorded-object tuples, and in a
log each event's `run_id`, the header's.  Records, events and moves are
slotted dataclasses: they compare by value and are not hashable.  They are
never shared and never changed after they are built, since readers
downstream key on their identity; `tests/test_api.py` fails on code that
stores one of their fields.  `projection` alone links a firing record to its
observed event.
"""
from __future__ import annotations

import csv
import json
import math
import os
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from itertools import chain, count

from .nets import BASE, OBJECT_SEPARATOR, Net
from .patterns import provenance_breaches
from .serialize import (SCHEMA_VERSION, canonical_json, net_from_dict,
                        net_to_dict, provenance_from_dict, provenance_to_dict,
                        text_digest)
from .simulate import FiringRecord, GroundTruthTrace, epoch_seconds, timestamp_at
from .timing import NUMBER, ConfigInvalid, ReportRule, reject_unknown_keys, typed


class ParseError(Exception):
    def __init__(self, message: str, path: str = "", line: int | None = None):
        self.path = path
        self.line = line
        at = f" at {path}" + (f":{line}" if line is not None else "") if path else ""
        super().__init__(message + at)


class SchemaVersionMismatch(Exception):
    pass


class ModelDigestMismatch(Exception):
    """A trace header's model digest that differs from the model given for its role."""


def atomic_write(path: str, text: str) -> None:
    _atomic_write_with(path, lambda fh: fh.write(text))


# how many temporary names `_new_temporary` tries before it gives up
_TEMPORARY_NAME_TRIES = 100


def _new_temporary(directory: str) -> tuple[int, str]:
    """A new file under an unused temporary name in `directory`, opened for
    writing, and that name.  It gets the mode `open(name, "w")` gives a new
    file, 0o666 less the umask; `tempfile.mkstemp` gives 0o600, which the
    rename onto the final name would keep."""
    for _ in range(_TEMPORARY_NAME_TRIES):
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue
    raise FileExistsError(f"no unused temporary name in {directory}")


def _atomic_write_with(path: str, write) -> None:
    """Call `write(fh)` on a temporary file beside `path`, then rename it
    onto `path`: a failure leaves `path` as it was and no temporary file.
    `path` ends with the mode `open(path, "w")` gives a new file."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = _new_temporary(d)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def link_write(src: str, path: str, text: str) -> None:
    """Give `path` the bytes of `src`, a file already written with `text`.

    A hard link to `src` under a temporary name is renamed onto `path`, so
    an existing `path` is replaced as `atomic_write` replaces it, and no
    inode is created.  Where the filesystem refuses the link (no hard links,
    too many of them, or no such directory yet), `text` is written by
    `atomic_write`.  The two names then share one file: change neither in
    place.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-{os.getpid()}-{os.path.basename(path)}.link")
    try:
        os.link(src, tmp)
    except OSError:
        atomic_write(path, text)
        return
    try:
        os.replace(tmp, path)
    finally:
        # rename(2) keeps both names when they already name one file
        if os.path.lexists(tmp):
            os.unlink(tmp)


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
# what JSON allows around a value; `str.strip()` would also take NBSP, U+2028, ...
_JSON_WHITESPACE = " \t\r\n"


def read_jsonl(path: str):
    """Yield (line number, object) for each non-blank line of a JSONL file.

    A blank line holds only JSON whitespace (space, tab, CR, LF).  A line that
    is not valid JSON, or not a JSON object, raises ParseError with the
    message `json.loads` gives for the line.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip(_JSON_WHITESPACE)
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

    An unknown key or a missing or mistyped field is a ParseError at path:line.
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


def write_jsonl(dicts: Iterable[dict], path: str) -> None:
    """Write `dicts` to `path`, one `canonical_json` line each, each line
    handed to the file as it is encoded."""
    lines = (canonical_json(d) + "\n" for d in dicts)
    _atomic_write_with(path, lambda fh: fh.writelines(lines))


# -- ground-truth traces ------------------------------------------------------

def record_to_dict(r: FiringRecord) -> dict:
    """The record's JSON object (tuples encode as lists)."""
    return {
        "seq_no": r.seq_no,
        "time": r.time,
        "transition": r.transition,
        "activity": r.activity,
        "values": r.values,
        "fresh": r.fresh,
        "provenance": provenance_to_dict(r.provenance),
        "consumed": r.consumed,
        "produced": r.produced,
        "recorded_objects": r.recorded_objects,
        "coarsen_window": r.coarsen_window,
        "timing_causes": r.timing_causes,
    }


def _identifiers(value, what: str) -> tuple[str, ...]:
    """`value`, a JSON list of strings, as a tuple; else a ValueError naming
    `what`."""
    if type(value) is list:
        for ident in value:
            if type(ident) is not str:
                break
        else:
            return tuple(value)
    raise ValueError(f"{what!r} must be a list of strings, got {value!r}")


def _shared_strings(items: list, shared: dict, what: str) -> tuple[str, ...]:
    """`items`, a JSON list of strings, as a tuple; else a ValueError naming
    `what`.  Equal lists decoded with one `shared` table come back as one
    tuple.  Only strings and tuples of strings stay in a table, so a list
    equal to a tuple in it holds only strings and needs no check."""
    strings = tuple(items)
    try:
        held = shared.setdefault(strings, strings)
    except TypeError:  # an item that is a list or an object
        return _identifiers(items, what)  # which raises
    if held is strings:  # the first of its value: check it
        for ident in strings:
            if type(ident) is not str:
                del shared[strings]
                _identifiers(items, what)
    return held


def _bound_pairs(value, what: str, shared: dict) -> tuple[tuple[str, str], ...]:
    """`value`, a JSON list of [variable, identifier] pairs, as a tuple of
    pairs, each equal pair one tuple of the `shared` table.  An entry of
    another length raises ValueError as unpacking does; any other value that
    is not a list of string pairs, a ValueError naming `what`; variable names
    that do not strictly increase (the order the writer gives them, each name
    once), a ValueError saying so."""
    if type(value) is list:
        pairs = []
        for pair in value:
            k, v = pair
            if type(pair) is not list or type(k) is not str or type(v) is not str:
                break
            pair = (k, v)
            pairs.append(shared.setdefault(pair, pair))
        else:
            for i in range(1, len(pairs)):
                if pairs[i - 1][0] >= pairs[i][0]:
                    raise ValueError(f"{what!r} must name each variable once, in increasing "
                                     f"order, got {value!r}")
            return tuple(pairs)
    raise ValueError(f"{what!r} must be a list of [variable, identifier] string pairs, "
                     f"got {value!r}")


def _object_types(d: dict, key: str) -> dict:
    """Field `key` of header `d`, a JSON object mapping identifiers to object
    type names ({} if absent); else a ConfigInvalid or ValueError naming it."""
    types = typed(d, key, (dict,), {})
    for object_type in types.values():
        if type(object_type) is not str:
            raise ValueError(f"{key!r} must be an object of strings, got {types!r}")
    return types


def _place(pid, what: str) -> str:
    """`pid`, the place id of a `what` entry, once it is a string."""
    if type(pid) is not str:
        raise ValueError(f"{what!r} place ids must be strings, got {pid!r}")
    return pid


def record_from_dict(d: dict, tags: dict | None = None, net: Net | None = None,
                     index: int | None = None, *, shared: dict) -> FiringRecord:
    """Decode a trace record, checking its keys, then each field in field
    order: the first defect raises ConfigInvalid, ValueError or TypeError.
    Records decoded with one `tags` table (a file's) share their equal
    provenance tags, and a tag with a breach of `patterns.provenance_breaches`
    raises its first.  Records decoded with one `shared` table (a file's, too)
    share their equal transitions and activities, and their equal tokens,
    [variable, identifier] pairs and recorded objects, each one tuple.
    Given `index`, the record's place among its file's records, `seq_no`
    must equal it, as the writer numbers them.  Given `net`, the transition
    must be one of its.

    Each field's type is tested in place; a defect calls the check that
    words its diagnostic (`typed`, `_place`, `_identifiers`), which raises,
    or raises in place."""
    if type(d) is not dict or not d.keys() <= _RECORD_KEYS:
        reject_unknown_keys(d, _RECORD_KEYS, "trace record")
    share = shared.setdefault
    get = d.get
    seq_no, time, transition = get("seq_no"), get("time"), get("transition")
    if type(seq_no) is not int:
        typed(d, "seq_no", (int,))
    if seq_no != index and index is not None:
        raise ValueError(f"'seq_no' must count the records 0, 1, 2, ... in file order: "
                         f"expected {index}, got {seq_no}")
    if not (type(time) is float and time == time or type(time) is int):  # NaN != NaN
        typed(d, "time", NUMBER)
    if type(transition) is not str:
        typed(d, "transition", (str,))
    if net is not None and transition not in net.transition_map:
        raise ValueError(f"record references unknown transition {transition!r}")
    transition = share(transition, transition)
    activity = get("activity")
    if activity is not None:
        if type(activity) is not str:
            typed(d, "activity", (str,), None)
        activity = share(activity, activity)
    values = _bound_pairs(get("values", []), "values", shared)
    fresh = get("fresh", [])
    fresh = () if fresh == [] else _bound_pairs(fresh, "fresh", shared)
    if values and fresh and not {k for k, _ in values}.isdisjoint([k for k, _ in fresh]):
        raise ValueError(f"'values' and 'fresh' must name different variables, "
                         f"got {get('values')!r} and {get('fresh')!r}")
    provenance = get("provenance", _BASE_JSON)
    provenance = (BASE if provenance == _BASE_JSON
                  else provenance_from_dict(provenance, tags, provenance_breaches))
    entries = get("consumed", ())
    if type(entries) is not list:
        entries = typed(d, "consumed", (list,), [])
    consumed = []
    for pid, tok in entries:
        if type(pid) is not str:
            _place(pid, "consumed")
        if type(tok) is not list:
            _identifiers(tok, "consumed")
        consumed.append((pid, _shared_strings(tok, shared, "consumed")))
    entries = get("produced", ())
    if type(entries) is not list:
        entries = typed(d, "produced", (list,), [])
    produced = []
    for pid, tok, avail in entries:
        if type(pid) is not str:
            _place(pid, "produced")
        if type(tok) is not list:
            _identifiers(tok, "produced")
        tok = _shared_strings(tok, shared, "produced")
        if not (type(avail) is float and avail == avail or type(avail) is int):  # NaN != NaN
            raise ValueError(f"'produced' availability times must be numbers, got {avail!r}")
        produced.append((pid, tok, avail))
    recorded = get("recorded_objects", [])
    if type(recorded) is not list:
        _identifiers(recorded, "recorded_objects")
    recorded = _shared_strings(recorded, shared, "recorded_objects")
    window = get("coarsen_window")
    if window is not None and not (type(window) is float and window == window
                                   or type(window) is int):
        typed(d, "coarsen_window", NUMBER, None)
    causes = get("timing_causes", [])
    return FiringRecord(seq_no, time, transition, activity, values, fresh, provenance,
                        tuple(consumed), tuple(produced), recorded, window,
                        () if causes == [] else _identifiers(causes, "timing_causes"))


def trace_to_dicts(trace: GroundTruthTrace) -> Iterator[dict]:
    """The trace's header, then each record's JSON object, built as they are
    read."""
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
    return chain([header], map(record_to_dict, trace.records))


def write_trace(trace: GroundTruthTrace, path: str) -> None:
    write_jsonl(trace_to_dicts(trace), path)


def _trace_header(h: dict) -> dict:
    """The header's fields once its keys are known, each checked in field order."""
    reject_unknown_keys(h, _TRACE_HEADER_KEYS, "trace header")
    run_id, seed = typed(h, "run_id", (str,)), typed(h, "seed", (int,))
    epoch = typed(h, "epoch", (str,))
    try:
        epoch_seconds(epoch)
    except ValueError:
        raise ValueError(f"'epoch' must be an ISO 8601 time, got {epoch!r}") from None
    model_digests = typed(h, "model_digests", (dict,), {})
    config_digest = typed(h, "config_digest", (str,), "")
    object_types = _object_types(h, "object_types")
    pattern_stats = typed(h, "pattern_stats", (dict,), {})
    report_rules = tuple(map(ReportRule.from_dict, typed(h, "report_rules", (list,), [])))
    return dict(
        run_id=run_id, seed=seed, epoch=epoch, model_digests=model_digests,
        config_digest=config_digest, object_types=object_types, pattern_stats=pattern_stats,
        report_rules=report_rules, termination=typed(h, "termination", (str,), ""),
        final_time=typed(h, "final_time", NUMBER, 0.0),
        injected=tuple([(_place(pid, "injected"), _identifiers(tok, "injected"))
                        for pid, tok in typed(h, "injected", (list,), [])]))


def read_trace(path: str, net: Net | None = None,
               digests: dict | None = None) -> GroundTruthTrace:
    """The trace in `path`.  A record whose `seq_no` is not its index among
    the records, or, given `net`, that names no transition of it, is a
    ParseError naming its line.  `digests` maps a model role ("m0", "ml") to
    the `net_digest` of the model given for it: where the header's
    `model_digests` names that role with another digest, ModelDigestMismatch
    is raised before any record is read."""
    def decode_header(h: dict) -> dict:
        head = _trace_header(h)
        for role, given in (digests or {}).items():
            recorded = head["model_digests"].get(role, given)
            if recorded != given:
                raise ModelDigestMismatch(
                    f"{path}: the trace was played from {role} digest {recorded!r}, "
                    f"but the {role} model given has digest {given!r}")
        return head

    tags: dict = {}
    shared: dict = {}
    index = count()
    header, records = _read_headed_jsonl(
        path, "ground_truth_trace", decode_header,
        lambda d: record_from_dict(d, tags, net, next(index), shared=shared))
    return GroundTruthTrace(records=records, **header)


# -- observed logs -------------------------------------------------------------

@dataclass(slots=True)
class ObservedEvent:
    event_id: str
    timestamp: str
    activity: str
    objects: tuple[str, ...]
    run_id: str

    def to_dict(self) -> dict:
        return {"event_id": self.event_id, "timestamp": self.timestamp,
                "activity": self.activity, "objects": list(self.objects),
                "run_id": self.run_id}

    @classmethod
    def from_dict(cls, d: dict, shared: dict) -> "ObservedEvent":
        """Decode an event, checking its keys, then each field in field order:
        the first defect raises ConfigInvalid or ValueError.  As in
        `record_from_dict`, each field is tested in place, a defect calls
        the check that words its diagnostic, and events decoded with one
        `shared` table share their equal activities, `objects` tuples and
        run ids."""
        if type(d) is not dict or not d.keys() <= _EVENT_KEYS:
            reject_unknown_keys(d, _EVENT_KEYS, "log event")
        share = shared.setdefault
        get = d.get
        event_id, timestamp, activity = get("event_id"), get("timestamp"), get("activity")
        objects, run_id = get("objects", []), get("run_id", "")
        if type(event_id) is not str:
            typed(d, "event_id", (str,))
        if type(timestamp) is not str:
            typed(d, "timestamp", (str,))
        if type(activity) is not str:
            typed(d, "activity", (str,))
        if type(objects) is not list:
            _identifiers(objects, "objects")
        objects = _shared_strings(objects, shared, "objects")
        if type(run_id) is not str:
            typed(d, "run_id", (str,), "")
        return cls(event_id, timestamp, share(activity, activity), objects,
                   share(run_id, run_id))


# BASE as `provenance_to_dict` writes it: most records' provenance, which
# `record_from_dict` knows by equality alone
_BASE_JSON = provenance_to_dict(BASE)
# the keys of each object the JSONL readers decode: the fields its writer writes
_RECORD_KEYS = frozenset(f.name for f in fields(FiringRecord))
_TRACE_HEADER_KEYS = (frozenset(f.name for f in fields(GroundTruthTrace)) - {"records"}
                      | {"schema_version", "kind"})
_EVENT_KEYS = frozenset(f.name for f in fields(ObservedEvent))
_LOG_HEADER_KEYS = frozenset(("schema_version", "kind", "run_id", "objects"))


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


def projection(trace: GroundTruthTrace) -> list[tuple[FiringRecord, ObservedEvent]]:
    """Each labeled firing of `trace` with the event it projects to, in log
    order: objects per record_spec, timestamps coarsened where a coarsening
    window applies.  This is the one place that links a record to its event."""
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
    return [(r, ObservedEvent(event_id=event_id_for(trace.run_id, seq_no),
                              timestamp=timestamp_at(epoch_s, eta), activity=r.activity,
                              objects=r.recorded_objects, run_id=trace.run_id))
            for eta, seq_no, r in rows]


def project_observed(trace: GroundTruthTrace) -> ObservedLog:
    """The visible side of a trace: the events of its `projection`; silent
    firings disappear entirely."""
    events = tuple([e for _, e in projection(trace)])
    mentioned = {o for e in events for o in e.objects}
    universe = {o: t for o, t in trace.object_types.items() if o in mentioned}
    return ObservedLog(events=events, objects=universe, run_id=trace.run_id)


def write_observed_jsonl(log: ObservedLog, path: str) -> None:
    if log.objects is None:
        raise ValueError("log.jsonl gives each object's type; this log's types are unknown")
    header = {"schema_version": SCHEMA_VERSION, "kind": "observed_log",
              "run_id": log.run_id, "objects": log.objects}
    write_jsonl(chain([header], map(ObservedEvent.to_dict, log.events)), path)


def _log_header(h: dict) -> dict:
    """The header's fields once its keys are known, each checked in field order."""
    reject_unknown_keys(h, _LOG_HEADER_KEYS, "log header")
    return dict(objects=_object_types(h, "objects"), run_id=typed(h, "run_id", (str,), ""))


def read_observed_jsonl(path: str) -> ObservedLog:
    """The log in `path`.  Its events share one table, which holds the
    header's `run_id` first, so an event's equal run id is the header's."""
    shared: dict = {}

    def decode_header(h: dict) -> dict:
        head = _log_header(h)
        shared[head["run_id"]] = head["run_id"]
        return head

    header, events = _read_headed_jsonl(path, "observed_log", decode_header,
                                        lambda d: ObservedEvent.from_dict(d, shared))
    return ObservedLog(events=events, **header)


CSV_FIELDS = ("event_id", "timestamp", "activity", "objects", "run_id")


def write_observed_csv(log: ObservedLog, path: str) -> None:
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        writer.writerows([e.event_id, e.timestamp, e.activity,
                          OBJECT_SEPARATOR.join(e.objects), e.run_id] for e in log.events)
    _atomic_write_with(path, write)


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


# a run's file names, by the keys of their paths in a dataset manifest
RUN_FILES = {"trace": "trace.gt.jsonl", "log_jsonl": "log.jsonl", "log_csv": "log.csv"}


def write_run(trace: GroundTruthTrace, directory: str) -> ObservedLog:
    """Write `trace` and its observed log, as JSONL and as CSV, into
    `directory` under the names RUN_FILES gives: the log written."""
    log = project_observed(trace)
    write_trace(trace, os.path.join(directory, RUN_FILES["trace"]))
    write_observed_jsonl(log, os.path.join(directory, RUN_FILES["log_jsonl"]))
    write_observed_csv(log, os.path.join(directory, RUN_FILES["log_csv"]))
    return log


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
