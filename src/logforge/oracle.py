"""Ground-truth targets for conformance checking.

From a trace and its observed log we derive the optimal alignment a checker
should have produced.  Base labeled firings are synchronous moves with no
cause.  A firing of a created transition gives moves tagged with its cause:
- recording insertions (RI_in^e, RI_in^a) become log/model move pairs;
- skipped or unrecorded activities (BI_3, RI_mi^e) become model moves;
- deviation silents (the other BI_* codes, and RI_mi^o's bypass) become
  silent model moves;
- object-level recording errors (RI_mi^o, RI_in^o) stay synchronous but
  carry an object-discrepancy annotation;
- batch-logged pairs (RI_in^p) stay synchronous.
Timing-only patterns (BI_11, RI_mi^p) do not surface in alignments at all;
they appear in the deviation report only.  `tests/test_oracle.py` checks
this mapping for every catalog code.

An alignment file (schema "2") is a header line, then one line per systemic
move, written by `logio.write_jsonl`.  A line holds the move's fields once,
plus `at`, the [object, seq] places where the move sits in each object's
sequence; a move on k objects is one line, not k.  The lines follow the
alignment's `system` order when `system` holds each move of `per_object`
exactly once, and the order of first appearance over the sorted objects
otherwise, so a file gives back `system` as its moves in line order.  The
places are explicit, not a projection of `objects`: an `RI_mi^o` move is
filed under its unrecorded objects too, and a candidate's per-object orders
need not fit any one line order.

`read_alignment` also reads schema "1" files, which external checkers
write: no header, one line per move of each object, with its `object` and
`seq`.  Those give per-object moves only (`system` is None).  It is the one
reader that ignores keys it does not know: a checker's file may carry fields
of its own, and a key check per line would add several percent to every
read.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .logio import (ObservedLog, ParseError, SchemaVersionMismatch, projection, read_jsonl,
                    write_jsonl)
from .nets import Net
from .simulate import FiringRecord, GroundTruthTrace

INSERTION_CODES = ("RI_in^e", "RI_in^a")
SKIP_CODES = ("RI_mi^e", "BI_3")
OBJECT_ERROR_CODES = ("RI_mi^o", "RI_in^o")


class LogTraceMismatch(Exception):
    pass


class CoverageMismatch(Exception):
    pass


_TEXT_OR_NULL = (str, type(None))
_OBJECT_OR_NULL = (dict, type(None))


@dataclass(frozen=True)
class Cause:
    pattern_code: str
    application_id: str
    origin: str

    def to_dict(self) -> dict:
        return {"pattern_code": self.pattern_code, "application_id": self.application_id,
                "origin": self.origin}


@dataclass(slots=True)
class Move:
    kind: str  # synchronous | log | model | silent_model
    activity: str | None
    objects: tuple[str, ...]
    event_id: str | None = None
    transition: str | None = None
    cause: Cause | None = None
    discrepancy: dict | None = None

    def to_line(self, at: list) -> dict:
        """The interchange line of this move at the [object, seq] places
        `at`, without the fields that are None (tuples encode as lists)."""
        d = {"at": at, "kind": self.kind, "activity": self.activity, "objects": self.objects}
        if self.event_id is not None:
            d["event_id"] = self.event_id
        if self.transition is not None:
            d["transition"] = self.transition
        if self.cause is not None:
            d["cause"] = self.cause.to_dict()
        if self.discrepancy is not None:
            d["discrepancy"] = self.discrepancy
        return d


@dataclass
class GtAlignment:
    """The systemic moves and their projection onto each object.  `system` is
    None when read from a schema "1" file, whose per-object lines lose the
    system order."""

    system: tuple[Move, ...] | None
    per_object: dict

    def covered_event_ids(self) -> set[str]:
        ids: set[str] = set()
        for moves in self.per_object.values():
            for m in moves:
                if m.kind in ("synchronous", "log") and m.event_id:
                    ids.add(m.event_id)
        return ids


def _cause(record: FiringRecord) -> Cause:
    p = record.provenance
    return Cause(p.pattern_code or "", p.application_id or "", p.origin)


def _bound_objects(record: FiringRecord) -> tuple[str, ...]:
    return tuple(dict.fromkeys([ident for _, ident in record.values]))


def _shadow_label(m0: Net, record: FiringRecord) -> str | None:
    shadow = record.provenance.shadow_of
    if shadow and shadow in m0.transition_map:
        return m0.transition_map[shadow].activity_label
    return record.activity


def _object_discrepancy(m0: Net, trace: GroundTruthTrace, record: FiringRecord) -> dict:
    shadow = record.provenance.shadow_of
    shadow_vars = m0.variable_types(shadow) if shadow in m0.transition_map else {}
    recorded = set(record.recorded_objects)
    shadow_bound = {ident for var, ident in record.values if var in shadow_vars}
    unrecorded = sorted(ident for var, ident in record.values
                        if var in shadow_vars and ident not in recorded)
    substituted = sorted(ident for ident in recorded if ident not in shadow_bound)
    bound_types = {trace.object_types.get(ident) for _, ident in record.values}
    missing_types = sorted(t for t in set(shadow_vars.values()) if t not in bound_types)
    out: dict = {}
    if unrecorded:
        out["unrecorded"] = unrecorded
    if substituted:
        out["substituted"] = substituted
    if missing_types:
        out["missing_types"] = missing_types
    return out


def gt_alignment(m0: Net, trace: GroundTruthTrace, log: ObservedLog) -> GtAlignment:
    """The ground-truth alignment of `log` against the base model.  Each
    labeled record's event is the one `logio.projection` pairs it with."""
    pairs = projection(trace)
    if tuple([e for _, e in pairs]) != log.events or trace.run_id != log.run_id:
        raise LogTraceMismatch("log is not the projection of this trace")
    event_of = {id(record): event for record, event in pairs}

    system: list[Move] = []
    grouped: dict[str, list[Move]] = {}

    def emit(move: Move, group_objects) -> None:
        system.append(move)
        for obj in group_objects:
            grouped.setdefault(obj, []).append(move)

    for record in trace.records:
        prov = record.provenance
        code = prov.pattern_code
        if record.activity is None:
            if prov.is_base:
                continue
            bound = _bound_objects(record)
            if code in SKIP_CODES:
                move = Move("model", _shadow_label(m0, record), bound,
                            transition=prov.shadow_of or record.transition,
                            cause=_cause(record))
            else:
                move = Move("silent_model", None, bound,
                            transition=record.transition, cause=_cause(record))
            emit(move, bound)
            continue

        event = event_of[id(record)]
        if prov.is_base:
            emit(Move("synchronous", event.activity, event.objects,
                      event_id=event.event_id, transition=record.transition),
                 event.objects)
        elif code in INSERTION_CODES:
            bound = _bound_objects(record)
            emit(Move("log", event.activity, event.objects,
                      event_id=event.event_id, cause=_cause(record)),
                 event.objects)
            emit(Move("model", _shadow_label(m0, record), bound,
                      transition=prov.shadow_of, cause=_cause(record)),
                 bound)
        elif code in OBJECT_ERROR_CODES:
            disc = _object_discrepancy(m0, trace, record)
            move = Move("synchronous", event.activity, event.objects,
                        event_id=event.event_id,
                        transition=prov.shadow_of or record.transition,
                        cause=_cause(record), discrepancy=disc or None)
            emit(move, tuple(dict.fromkeys(list(event.objects) + disc.get("unrecorded", []))))
        else:
            # remaining labeled creations (batch-logged pairs) stay synchronous
            emit(Move("synchronous", event.activity, event.objects,
                      event_id=event.event_id,
                      transition=prov.shadow_of or record.transition,
                      cause=_cause(record)),
                 event.objects)

    return GtAlignment(system=tuple(system),
                       per_object={k: tuple(v) for k, v in sorted(grouped.items())})


@dataclass
class DeviationReport:
    entries: dict  # application_id -> {code, count, responsible, affected}

    def to_dict(self) -> dict:
        return {"entries": {
            app: {"code": e["code"], "count": e["count"],
                  "responsible": sorted(e["responsible"]),
                  "affected": sorted(e["affected"])}
            for app, e in sorted(self.entries.items())
        }}


def deviation_report(trace: GroundTruthTrace) -> DeviationReport:
    """Per pattern application: occurrence count plus the responsible and
    affected objects, read off the created transitions' bindings."""
    rules = {r.transition: r for r in trace.report_rules}
    entries: dict[str, dict] = {}
    for app, stats in trace.pattern_stats.items():
        entries[app] = {"code": stats.get("pattern_code", ""),
                        "count": stats.get("fired", 0),
                        "responsible": set(), "affected": set()}

    for record in trace.records:
        apps = []
        if record.provenance.application_id:
            apps.append((record.provenance.application_id, False))
        for app in record.timing_causes:
            apps.append((app, True))
        for app, timing in apps:
            entry = entries.setdefault(
                app, {"code": record.provenance.pattern_code or "",
                      "count": 0, "responsible": set(), "affected": set()})
            values = dict(record.values)
            if timing:
                entry["responsible"].update(values.values())
                continue
            rule = rules.get(record.transition)
            if rule is None:
                entry["responsible"].update(values.values())
                continue
            resp_names = list(values) if rule.responsible is None else list(rule.responsible)
            responsible = {values[n] for n in resp_names if n in values}
            if rule.affected is None:
                affected = {v for n, v in values.items() if v not in responsible}
            else:
                affected = {values[n] for n in rule.affected if n in values}
            entry["responsible"].update(responsible)
            entry["affected"].update(affected)

    for entry in entries.values():
        entry["affected"] -= entry["responsible"]
    return DeviationReport(entries=entries)


def _levenshtein(a: list, b: list) -> int:
    """Unit-cost edit distance between two sequences of hashable symbols.

    The common prefix and suffix are trimmed first, so identical sequences
    cost O(n).  The rest runs Myers' bit-parallel algorithm (JACM 46(3),
    1999) in Hyyro's Levenshtein form (2001): the longer sequence is held in
    one Python int per bit vector and the loop runs over the shorter one, so
    the cost is O(n * ceil(m / w)) for lengths n <= m and word size w.
    """
    lo, hi_a, hi_b = 0, len(a), len(b)
    while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    a, b = a[lo:hi_a], b[lo:hi_b]
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict = {}
    bit = 1
    for x in a:
        peq[x] = peq.get(x, 0) | bit
        bit <<= 1
    mask = bit - 1
    high = bit >> 1
    # with D the DP matrix over a (rows) and b (columns): bit i of pv/mv is
    # set where D[i+1][j] - D[i][j] is +1/-1, bit i of ph/mh where
    # D[i+1][j] - D[i+1][j-1] is; score is D[len(a)][j]
    pv, mv, score = mask, 0, len(a)
    for x in b:
        eq = peq.get(x, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def _move_key(m: Move):
    return (m.kind, m.activity, frozenset(m.objects))


def move_distance(candidate: GtAlignment, gt: GtAlignment) -> float:
    """Normalized per-object edit distance between two alignments over move
    tuples (kind, activity, object set); 0 iff identical."""
    if candidate.covered_event_ids() != gt.covered_event_ids():
        raise CoverageMismatch("alignments cover different observed events")
    objects = sorted(set(candidate.per_object) | set(gt.per_object))
    if not objects:
        return 0.0
    symbols: dict = {}  # move key -> small int, shared across objects

    def interned(moves) -> list[int]:
        return [symbols.setdefault(_move_key(m), len(symbols)) for m in moves]

    total = 0.0
    for obj in objects:
        seq_c = interned(candidate.per_object.get(obj, ()))
        seq_g = interned(gt.per_object.get(obj, ()))
        denom = max(len(seq_c), len(seq_g))
        if denom == 0:
            continue
        total += _levenshtein(seq_c, seq_g) / denom
    return total / len(objects)


# -- interchange ---------------------------------------------------------------

ALIGNMENT_SCHEMA_VERSION = "2"
_HEADER = {"kind": "alignment", "schema_version": ALIGNMENT_SCHEMA_VERSION}


def write_alignment(alignment: GtAlignment, path: str) -> None:
    """Write `alignment` as a schema "2" file: one line per move, grouped by
    identity, so a Move object filed under k objects is one line."""
    places: dict[int, list] = {}  # id(move) -> its [object, seq] places
    order: list[Move] = []  # each move once, in order of first appearance
    for obj, obj_moves in sorted(alignment.per_object.items()):
        for seq, move in enumerate(obj_moves):
            try:
                places[id(move)].append([obj, seq])
            except KeyError:
                places[id(move)] = [[obj, seq]]
                order.append(move)
    if alignment.system is not None:
        # a move of `system` on no object has no place, and no line
        placed = [m for m in alignment.system if id(m) in places]
        if len(placed) == len(places) == len(set(map(id, placed))):
            order = placed
    write_jsonl(chain([_HEADER], (m.to_line(places[id(m)]) for m in order)), path)


def _read_cause(d, causes: dict) -> Cause:
    """The cause an alignment line holds; equal causes in one `causes` table
    are one Cause.  ValueError says which field is malformed."""
    if type(d) is not dict or not (type(d.get("pattern_code")) is str
                                   and type(d.get("application_id")) is str):
        raise ValueError("'cause' must hold a string 'pattern_code' and 'application_id'")
    key = (d["pattern_code"], d["application_id"], d.get("origin", ""))
    try:
        return causes[key]
    except (KeyError, TypeError):  # a new cause, or an unhashable and so malformed origin
        pass
    if type(key[2]) is not str:
        raise ValueError("'cause' must hold a string 'origin' if any")
    cause = causes[key] = Cause(*key)
    return cause


def _read_move(d: dict, causes: dict, object_tuples: dict) -> Move:
    """The move an alignment line holds, each field checked in field order;
    ValueError says which field is malformed.  Equal `objects` of one
    `object_tuples` table share one tuple: fewer objects for the collector."""
    get = d.get
    kind, activity, objects = get("kind"), get("activity"), get("objects", [])
    event_id, transition, cause = get("event_id"), get("transition"), get("cause")
    discrepancy = get("discrepancy")
    if type(kind) is not str:
        raise ValueError("'kind' must be a string")
    if type(activity) not in _TEXT_OR_NULL:
        raise ValueError("'activity' must be a string or null")
    if type(objects) is not list or not all(map(str.__instancecheck__, objects)):
        raise ValueError("'objects' must be a list of strings")
    if type(event_id) not in _TEXT_OR_NULL:
        raise ValueError("'event_id' must be a string or null")
    if type(transition) not in _TEXT_OR_NULL:
        raise ValueError("'transition' must be a string or null")
    if cause is not None:
        cause = _read_cause(cause, causes)
    if type(discrepancy) not in _OBJECT_OR_NULL:
        raise ValueError("'discrepancy' must be an object or null")
    objects = tuple(objects)
    objects = object_tuples.setdefault(objects, objects)
    return Move(kind, activity, objects, event_id, transition, cause, discrepancy)


def _sorted_by_seq(grouped: dict) -> dict:
    """Each object's moves in the stable order of their seqs: ties keep file
    order."""
    return {obj: tuple(map(moves.__getitem__, sorted(range(len(moves)), key=seqs.__getitem__)))
            for obj, (seqs, moves) in grouped.items()}


def _are_places(at) -> bool:
    """Whether `at` is a non-empty list of [string object, integer seq] places."""
    if type(at) is not list or not at:
        return False
    for place in at:
        if type(place) is not list or len(place) != 2 or type(place[0]) is not str \
                or type(place[1]) is not int:
            return False
    return True


def read_alignment(path: str) -> GtAlignment:
    """The alignment in an interchange file: of schema "2" when its first line
    is a header, else of schema "1", whose first line is a move.  A header of
    another schema version raises SchemaVersionMismatch naming it and path.
    A malformed line raises ParseError naming its first malformed field, its
    places first, and path:line."""
    lines = read_jsonl(path)
    first = next(lines, None)
    systemic = first is not None and first[1].get("kind") == "alignment"
    if systemic and (version := first[1].get("schema_version")) != ALIGNMENT_SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"{path}: alignment schema_version {version!r}, "
                                    f"expected {ALIGNMENT_SCHEMA_VERSION!r}")
    if first is not None and not systemic:
        lines = chain([first], lines)
    system: list[Move] = []
    grouped: dict[str, tuple[list[int], list[Move]]] = {}  # object -> its seqs and moves
    causes: dict = {}
    object_tuples: dict = {}
    for lineno, d in lines:
        if systemic:
            at = d.get("at")
            if not _are_places(at):
                raise ParseError("alignment line needs 'at', a non-empty list of "
                                 "[string object, integer seq] places", path, lineno)
        else:
            obj, seq = d.get("object"), d.get("seq", lineno)
            if not (type(obj) is str and type(seq) is int):
                raise ParseError("alignment line needs a string 'object' and an integer 'seq'",
                                 path, lineno)
            at = ((obj, seq),)
        try:
            move = _read_move(d, causes, object_tuples)
        except ValueError as e:
            raise ParseError(f"malformed alignment move: {e}", path, lineno) from None
        system.append(move)
        for obj, seq in at:
            try:
                seqs, moves = grouped[obj]
            except KeyError:
                seqs, moves = grouped[obj] = [], []
            seqs.append(seq)
            moves.append(move)
    if not systemic:  # per-object lines lose the system order
        return GtAlignment(system=None, per_object=_sorted_by_seq(grouped))
    return GtAlignment(system=tuple(system),
                       per_object=_sorted_by_seq(dict(sorted(grouped.items()))))
