"""Typed Petri nets with identifiers (t-PNIDs).

Places are typed by tuples of object types and hold multisets of identifier
tuples; arcs carry variable inscriptions.  Nets and markings are value-like:
the public operations never mutate them in place.  A Net may be shared:
`logio.read_model` hands every reader of equal model text the same one, and
a dataset's cells share their models, so it is read-only (copy a marking
before changing it) and compiles its rules and tables once, on first use.

The firing rule of each transition is compiled once, into one FiringRule
(`Net.rules`), and every path reads it:

- A binding maps the variables of the input arcs to identifiers.  Each input
  arc consumes the token its variables spell, in inscription order, from its
  source place; the binding enables the transition iff all of those tokens
  are present at once.
- The nu-variables are the names flagged fresh on some output arc and named
  on no input arc: an input-bound name is never fresh.  Each binds to a new
  identifier of its type, drawn in order of first appearance on the output
  arcs (from an IdGenerator, from the recorded trace, or as ~1, ~2, ...).
- Each output arc produces the token its variables spell under the completed
  binding into its target place.  An unbound variable raises NotEnabled.

Internally a binding is positional: `transition_bindings` returns rows, the
values of the input variables in sorted-name order (`FiringRule.order`),
and a firing's values are that row followed by the nu-identifiers in
`FiringRule.nu` order.  `Binding`, with its (name, identifier) pairs, is the
public form that `enabled_bindings`, `fire`, `replay` and `bounded_language`
take and give.  A trace record holds the same pairs (its `values` and
`fresh`), not a Binding.

`fire`, `replay` and `bounded_language` share one untimed step,
`_fire_untimed` (take, mint, give), and differ only in how they mint: from
an IdGenerator, not at all (a recorded binding names every identifier), and
as ~n.  The step reads a binding's (name, identifier) pairs as they are, so
`replay_pairs` replays a trace's records without building a Binding each.
The simulator (`simulate.SimState._fire`) reads the same rule but moves
tokens itself: a produced token becomes available after a sampled delay,
and each move updates the enabled set it keeps.
"""
from __future__ import annotations

import itertools
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType

from .timing import SimAnnotations

ROLE_HINTS = ("regular", "resource_idle", "resource_busy", "queue", "correlation", "other")
ORIGINS = ("base", "behavioral", "recording")
OBJECT_SEPARATOR = ";"  # joins an event's objects in log.csv


def is_identifier(x) -> bool:
    """Whether `x` can name an object: a string without OBJECT_SEPARATOR."""
    return type(x) is str and OBJECT_SEPARATOR not in x


class NotEnabled(Exception):
    """Raised when a firing is attempted that the marking does not enable."""


class ExplosionGuard(Exception):
    """Raised when bounded-language exploration exceeds its node cap."""


@dataclass(frozen=True)
class ObjectType:
    name: str
    prefix: str = ""

    def __post_init__(self):
        if not self.prefix:
            object.__setattr__(self, "prefix", self.name)


@dataclass(frozen=True)
class Variable:
    name: str
    object_type: str
    fresh: bool = False


@dataclass(frozen=True)
class Place:
    id: str
    type_tuple: tuple[str, ...]
    role_hint: str = "regular"


@dataclass(frozen=True)
class ProvenanceTag:
    origin: str = "base"
    pattern_code: str | None = None
    application_id: str | None = None
    shadow_of: str | None = None

    @property
    def is_base(self) -> bool:
        return self.origin == "base"


BASE = ProvenanceTag()


@dataclass(frozen=True)
class Transition:
    """record_spec lists the arc-variable names whose bound identifiers appear
    in the emitted event; None records every bound variable."""

    id: str
    activity_label: str | None = None
    provenance: ProvenanceTag = BASE
    record_spec: tuple[str, ...] | None = None

    @property
    def silent(self) -> bool:
        return self.activity_label is None


@dataclass(frozen=True)
class Arc:
    source: str
    target: str
    inscription: tuple[Variable, ...]


_EMPTY: Mapping = MappingProxyType({})


class Marking:
    """Per-place multiset of identifier tuples; a place without tokens has
    no entry."""

    __slots__ = ("_tokens",)

    def __init__(self):
        self._tokens: dict[str, dict[tuple[str, ...], int]] = {}

    @classmethod
    def of(cls, tokens: dict[str, list] | None = None) -> "Marking":
        m = cls()
        for pid, toks in (tokens or {}).items():
            for tok in toks:
                m.add(pid, tuple(tok))
        return m

    def tokens(self, place_id: str) -> Mapping[tuple[str, ...], int]:
        return self._tokens.get(place_id, _EMPTY)

    def count(self, place_id: str, token: tuple[str, ...]) -> int:
        return self._tokens.get(place_id, _EMPTY).get(tuple(token), 0)

    def add(self, place_id: str, token: tuple[str, ...]) -> None:
        token = tuple(token)
        cnt = self._tokens.get(place_id)
        if cnt is None:
            self._tokens[place_id] = {token: 1}
        else:
            cnt[token] = cnt.get(token, 0) + 1

    def remove_each(self, pairs) -> None:
        """Remove each (place, token tuple) pair of `pairs` once, in order;
        ValueError at the first the marking does not hold."""
        tokens = self._tokens
        for place_id, token in pairs:
            cnt = tokens.get(place_id)
            n = cnt.get(token, 0) if cnt else 0
            if not n:
                raise ValueError(f"cannot remove {token} from {place_id}")
            if n > 1:
                cnt[token] = n - 1
            else:
                del cnt[token]
                if not cnt:
                    del tokens[place_id]

    def copy(self) -> "Marking":
        m = Marking()
        m._tokens = {pid: cnt.copy() for pid, cnt in self._tokens.items()}
        return m

    def move(self, consumed, produced) -> None:
        """Remove the consumed and add the produced (place, token) pairs."""
        self.remove_each(consumed)
        for pid, tok in produced:
            self.add(pid, tok)

    def items(self):
        for pid, cnt in self._tokens.items():
            for tok, n in cnt.items():
                yield pid, tok, n

    def identifiers(self) -> set[str]:
        ids = set()
        for _, tok, _ in self.items():
            ids.update(tok)
        return ids

    def contains(self, other: "Marking") -> bool:
        for pid, tok, n in other.items():
            if self.count(pid, tok) < n:
                return False
        return True

    def freeze(self) -> tuple:
        return tuple(
            (pid, tuple(sorted(cnt.items())))
            for pid, cnt in sorted(self._tokens.items())
        )

    def to_lists(self) -> dict[str, list[list[str]]]:
        out: dict[str, list[list[str]]] = {}
        for pid, cnt in sorted(self._tokens.items()):
            toks: list[list[str]] = []
            for tok, n in sorted(cnt.items()):
                toks.extend([list(tok)] * n)
            out[pid] = toks
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Marking) and self.freeze() == other.freeze()

    def __repr__(self) -> str:
        return f"Marking({dict(self._tokens)!r})"


@dataclass(frozen=True)
class Binding:
    """Assignment of a transition's arc variables to identifiers.

    `values` holds the input-bound variables, `fresh` the nu-assignments
    resolved at fire time; both are sorted (name, identifier) pairs.
    """

    values: tuple[tuple[str, str], ...]
    fresh: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(sorted(self.values)))
        object.__setattr__(self, "fresh", tuple(sorted(self.fresh)))


@dataclass(frozen=True)
class FireResult:
    """Outcome of one firing: the full binding and the moved token tuples."""

    transition: str
    binding: Binding
    consumed: tuple[tuple[str, tuple[str, ...]], ...]
    produced: tuple[tuple[str, tuple[str, ...]], ...]


@dataclass(frozen=True, eq=False, slots=True)
class FiringRule:
    """The firing rule of one transition, compiled from its arcs by `Net.rules`.

    A firing's values are its row, the input variables in sorted-name order
    (`order`), followed by one identifier per nu-variable (`nu`, in order of
    first appearance on the output arcs); `names` names the values.  A
    minted identifier is of its nu-variable's type in `nu_types`; every
    other value was typed where it entered the run.  Each input and output
    arc is (place, a `_picker` of its variables' positions among the
    values); `places` holds the input places, each once, in arc order.
    `fresh_order` lists the positions of the nu-identifiers in
    sorted-name order, as a Binding's `fresh` holds them, and `recorded` the
    positions of the objects an event of the transition records: its
    `record_spec` names, else all its variables in sorted-name order.
    `unbound` is an output variable that is neither input-bound nor nu, if
    there is one; then `outputs` is empty and `give` raises NotEnabled.
    `join` is how `transition_bindings` joins the input arcs (see `_join`).
    """

    transition: Transition
    order: tuple[str, ...]
    nu: tuple[str, ...]
    nu_types: tuple[str, ...]
    names: tuple[str, ...]
    inputs: tuple[tuple[str, itemgetter], ...]
    outputs: tuple[tuple[str, itemgetter], ...]
    places: tuple[str, ...]
    fresh_order: tuple[int, ...]
    recorded: tuple[int, ...]
    unbound: str | None
    join: tuple

    def take(self, values: tuple[str, ...]) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """The (place, token) pairs a firing with the positional `values`
        (a row, or a row followed by its nu-identifiers) consumes."""
        return tuple([(pid, pick(values)) for pid, pick in self.inputs])

    def give(self, values: tuple[str, ...]) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """The (place, token) pairs a firing with `values`, its row followed by
        its nu-identifiers, produces."""
        if self.unbound is not None:
            raise NotEnabled(f"{self.transition.id}: variable {self.unbound!r} unbound")
        return tuple([(pid, pick(values)) for pid, pick in self.outputs])


def _compile(t: Transition, in_arcs: tuple[Arc, ...], out_arcs: tuple[Arc, ...]) -> FiringRule:
    """`t`'s rule from its input and output arcs, in arc order."""
    ins = [(a.source, tuple([v.name for v in a.inscription])) for a in in_arcs]
    outs = [(a.target, tuple([v.name for v in a.inscription])) for a in out_arcs]
    flagged: dict[str, str] = {}  # the type of each name flagged fresh, in order
    for a in out_arcs:
        for v in a.inscription:
            if v.fresh:
                flagged.setdefault(v.name, v.object_type)
    order = tuple(sorted({name for _, names in ins for name in names}))
    nu = tuple([name for name in flagged if name not in order])
    names = order + nu
    slot = {name: i for i, name in enumerate(names)}
    unbound = next((n for _, vars_ in outs for n in vars_ if n not in slot), None)
    recorded = sorted(names) if t.record_spec is None else t.record_spec
    return FiringRule(
        t, order, nu, tuple([flagged[name] for name in nu]), names,
        tuple([(pid, _picker([slot[n] for n in vars_])) for pid, vars_ in ins]),
        () if unbound else tuple([(pid, _picker([slot[n] for n in vars_])) for pid, vars_ in outs]),
        tuple(dict.fromkeys([pid for pid, _ in ins])),
        tuple(sorted(range(len(order), len(names)), key=names.__getitem__)),
        tuple([slot[name] for name in recorded if name in slot]),
        unbound, _join(ins, order))


def _join(ins, order: tuple[str, ...]) -> tuple:
    """How `transition_bindings` joins the input arcs `ins`, (place, variable
    names) in arc order, into rows of the variables in `order`.

    A row holds the values of the input variables in order of first
    appearance.  Per arc: (place, kind, new, checks, key), where `new` picks
    the token positions of the arc's new names and `key` picks the arc's
    token from a row (see `_picker`).  A "free" arc appends its whole token;
    a "fixed" arc, all of whose names are bound, looks up its `key` token; a
    "mixed" arc appends its `new` values and checks each (token position, row
    slot) pair.  Also returned: a `_picker` of the slots in `order` (None
    when the rows already hold them in that order), and per place read by
    several arcs the `key` of each such arc.
    """
    slot: dict[str, int] = {}
    arcs, keys = [], {}
    for pid, names in ins:
        new, checks = [], []
        for i, name in enumerate(names):
            if name in slot:
                checks.append((i, slot[name]))
            else:
                new.append(i)
                slot[name] = len(slot)
        key = _picker(tuple(slot[name] for name in names))
        kind = "fixed" if not new else "free" if not checks else "mixed"
        arcs.append((pid, kind, _picker(tuple(new)), tuple(checks), key))
        keys.setdefault(pid, []).append(key)
    slots = None if order == tuple(slot) else _picker(tuple(slot[name] for name in order))
    shared = tuple((pid, tuple(ks)) for pid, ks in keys.items() if len(ks) > 1)
    return slots, tuple(arcs), shared


def _picker(positions):
    """A callable giving the tuple of a tuple's items at `positions`."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


class IdGenerator:
    """Type-prefixed counters handing out identifiers never seen in the run."""

    def __init__(self, prefixes: dict[str, str], seen=()):
        self._prefixes = dict(prefixes)
        self._seen: set[str] = set(seen)
        self._counters: dict[str, int] = {t: 0 for t in prefixes}
        pats = {t: re.compile(re.escape(p) + r"_(\d+)$") for t, p in prefixes.items()}
        for ident in self._seen:
            for t, pat in pats.items():
                m = pat.match(ident)
                if m:
                    self._counters[t] = max(self._counters[t], int(m.group(1)))

    def register(self, identifier: str) -> None:
        self._seen.add(identifier)

    def fresh(self, type_name: str) -> str:
        prefix = self._prefixes.get(type_name, type_name)
        n = self._counters.get(type_name, 0)
        while True:
            n += 1
            ident = f"{prefix}_{n}"
            if ident not in self._seen:
                break
        self._counters[type_name] = n
        self._seen.add(ident)
        return ident


@dataclass(frozen=True, eq=False)
class Net:
    object_types: tuple[ObjectType, ...]
    places: tuple[Place, ...]
    transitions: tuple[Transition, ...]
    arcs: tuple[Arc, ...]
    initial_marking: Marking
    final_marking: Marking | None = None
    annotations: SimAnnotations = field(default_factory=SimAnnotations)

    @cached_property
    def place_map(self) -> dict[str, Place]:
        return {p.id: p for p in self.places}

    @cached_property
    def transition_map(self) -> dict[str, Transition]:
        return {t.id: t for t in self.transitions}

    @cached_property
    def type_map(self) -> dict[str, ObjectType]:
        return {t.name: t for t in self.object_types}

    @cached_property
    def _inputs(self) -> dict[str, tuple[Arc, ...]]:
        d: dict[str, list[Arc]] = {t.id: [] for t in self.transitions}
        for a in self.arcs:
            if a.target in d:
                d[a.target].append(a)
        return {k: tuple(v) for k, v in d.items()}

    @cached_property
    def _outputs(self) -> dict[str, tuple[Arc, ...]]:
        d: dict[str, list[Arc]] = {t.id: [] for t in self.transitions}
        for a in self.arcs:
            if a.source in d:
                d[a.source].append(a)
        return {k: tuple(v) for k, v in d.items()}

    def inputs_of(self, tid: str) -> tuple[Arc, ...]:
        return self._inputs.get(tid, ())

    def outputs_of(self, tid: str) -> tuple[Arc, ...]:
        return self._outputs.get(tid, ())

    @cached_property
    def consumers_of(self) -> dict[str, tuple[tuple[str, tuple[str, ...]], ...]]:
        """Per place, each transition with an input arc from it, in
        transition order, with that transition's input places
        (`FiringRule.places`)."""
        d: dict[str, list] = {p.id: [] for p in self.places}
        for tid, rule in self.rules.items():
            for pid in rule.places:
                if pid in d:
                    d[pid].append((tid, rule.places))
        return {k: tuple(v) for k, v in d.items()}

    @cached_property
    def rules(self) -> dict[str, FiringRule]:
        """The firing rule of every transition, compiled on first use."""
        return {tid: _compile(t, self._inputs[tid], self._outputs[tid])
                for tid, t in self.transition_map.items()}

    @cached_property
    def _variable_types(self) -> dict[str, Mapping[str, str]]:
        out = {}
        for tid, ins in self._inputs.items():
            types: dict[str, str] = {}
            for a in ins + self._outputs[tid]:
                for v in a.inscription:
                    types.setdefault(v.name, v.object_type)
            out[tid] = MappingProxyType(types)
        return out

    def variable_types(self, tid: str) -> Mapping[str, str]:
        """The object type of each variable on `tid`'s arcs; where a name has
        several, the first on its input arcs, then on its output arcs."""
        return self._variable_types.get(tid, _EMPTY)

    def id_generator(self) -> IdGenerator:
        seen = self.initial_marking.identifiers()
        if self.final_marking is not None:
            seen |= self.final_marking.identifiers()
        return IdGenerator({t.name: t.prefix for t in self.object_types}, seen)


@dataclass(frozen=True)
class Diagnostic:
    code: str
    element: str
    message: str


def _check_marking(net: Net, marking: Marking, label: str, out: list[Diagnostic]) -> None:
    for pid, tok, _ in marking.items():
        for ident in tok:
            if not is_identifier(ident):
                out.append(Diagnostic(
                    "BadIdentifier", pid,
                    f"{label} identifier {ident!r} is not a string without {OBJECT_SEPARATOR!r}"))
        place = net.place_map.get(pid)
        if place is None:
            out.append(Diagnostic("MarkingUnknownPlace", pid, f"{label} marks unknown place {pid!r}"))
        elif len(tok) != len(place.type_tuple):
            out.append(Diagnostic(
                "MarkingArityMismatch", pid,
                f"{label} token {tok!r} has arity {len(tok)}, place {pid!r} expects {len(place.type_tuple)}"))


def validate_net(net: Net) -> list[Diagnostic]:
    """Return one diagnostic per violated structural invariant (empty = valid)."""
    out: list[Diagnostic] = []

    names = [t.name for t in net.object_types]
    for name in sorted({n for n in names if names.count(n) > 1}):
        out.append(Diagnostic("DuplicateTypeName", name, f"object type {name!r} declared twice"))
    for t in net.object_types:
        if not is_identifier(t.prefix):  # fresh identifiers are <prefix>_N
            out.append(Diagnostic("BadIdentifier", t.name,
                                  f"type prefix {t.prefix!r} is not a string without {OBJECT_SEPARATOR!r}"))

    pids = [p.id for p in net.places]
    for pid in sorted({i for i in pids if pids.count(i) > 1}):
        out.append(Diagnostic("DuplicateId", pid, f"place id {pid!r} not unique"))
    tids = [t.id for t in net.transitions]
    for tid in sorted({i for i in tids if tids.count(i) > 1}):
        out.append(Diagnostic("DuplicateId", tid, f"transition id {tid!r} not unique"))
    overlap = set(pids) & set(tids)
    for eid in sorted(overlap):
        out.append(Diagnostic("DuplicateId", eid, f"id {eid!r} used for both a place and a transition"))

    known_types = {t.name for t in net.object_types}
    for p in net.places:
        if not p.type_tuple:
            out.append(Diagnostic("EmptyTypeTuple", p.id, f"place {p.id!r} has empty type tuple"))
        for tn in p.type_tuple:
            if tn not in known_types:
                out.append(Diagnostic("UnknownType", p.id, f"place {p.id!r} uses undeclared type {tn!r}"))
        if p.role_hint not in ROLE_HINTS:
            out.append(Diagnostic("BadRoleHint", p.id, f"place {p.id!r} role {p.role_hint!r} not in {ROLE_HINTS}"))

    from .patterns import provenance_breaches  # patterns imports this module
    for t in net.transitions:
        for breach in provenance_breaches(t.provenance):
            out.append(Diagnostic("ProvenanceInvalid", t.id, breach))

    place_ids, trans_ids = set(pids), set(tids)
    for i, a in enumerate(net.arcs):
        aid = f"arc[{i}]({a.source}->{a.target})"
        src_p, src_t = a.source in place_ids, a.source in trans_ids
        dst_p, dst_t = a.target in place_ids, a.target in trans_ids
        if not ((src_p and dst_t) or (src_t and dst_p)):
            if not (src_p or src_t):
                out.append(Diagnostic("UnresolvedElement", aid, f"arc source {a.source!r} unknown"))
            if not (dst_p or dst_t):
                out.append(Diagnostic("UnresolvedElement", aid, f"arc target {a.target!r} unknown"))
            if (src_p and dst_p) or (src_t and dst_t):
                out.append(Diagnostic("BipartiteViolation", aid, "arc does not connect a place and a transition"))
            continue
        place = net.place_map[a.source if src_p else a.target]
        if len(a.inscription) != len(place.type_tuple):
            out.append(Diagnostic(
                "ArityMismatch", aid,
                f"inscription arity {len(a.inscription)} vs place {place.id!r} arity {len(place.type_tuple)}"))
        else:
            for v, tn in zip(a.inscription, place.type_tuple):
                if v.object_type != tn:
                    out.append(Diagnostic(
                        "TypeMismatch", aid,
                        f"variable {v.name!r}:{v.object_type} at a {tn} position of {place.id!r}"))
        if src_p:
            for v in a.inscription:
                if v.fresh:
                    out.append(Diagnostic("FreshOnInput", aid, f"nu-variable {v.name!r} on a place->transition arc"))

    for t in net.transitions:
        ins, outs = net.inputs_of(t.id), net.outputs_of(t.id)
        if not ins and not outs:
            out.append(Diagnostic("IsolatedTransition", t.id, f"transition {t.id!r} has no arcs"))
        seen_types: dict[str, str] = {}
        for a in list(ins) + list(outs):
            for v in a.inscription:
                prev = seen_types.setdefault(v.name, v.object_type)
                if prev != v.object_type:
                    out.append(Diagnostic(
                        "VariableTypeConflict", t.id,
                        f"variable {v.name!r} bound at types {prev!r} and {v.object_type!r}"))
        bound = {v.name for a in ins for v in a.inscription}
        for a in outs:
            for v in a.inscription:
                if not v.fresh and v.name not in bound:
                    out.append(Diagnostic(
                        "UnboundOutputVariable", t.id,
                        f"output variable {v.name!r} neither input-bound nor fresh"))
        if t.record_spec is not None:
            all_vars = bound | {v.name for a in outs for v in a.inscription}
            for name in t.record_spec:
                if name not in all_vars:
                    out.append(Diagnostic(
                        "RecordSpecUnknownVariable", t.id,
                        f"record_spec names {name!r}, not a variable of {t.id!r}"))

    ann = net.annotations
    named = [("weights", tid) for tid, _ in ann.weights]
    named += [("overrides", tid) for o in ann.overrides for tid in o.transitions]
    named += [("probes", tid) for p in ann.probes for tid in p.deviation + p.competitors]
    named += [("report_rules", r.transition) for r in ann.report_rules]
    for key, tid in named:
        if tid not in trans_ids:
            out.append(Diagnostic("UnresolvedElement", f"annotations.{key}",
                                  f"{key} names {tid!r}, which is no transition of the net"))

    _check_marking(net, net.initial_marking, "initial marking", out)
    if net.final_marking is not None:
        _check_marking(net, net.final_marking, "final marking", out)
    return out


def transition_bindings(net: Net, marking: Marking, tid: str) -> list[tuple[str, ...]]:
    """All bindings enabling `tid` in `marking`, as sorted rows: the values of
    the input variables in the order of `net.rules[tid].order`.

    No two rows are equal, so they are sorted without deduplication: each
    arc's token is a function of the row it extends (every position is a
    new value or checked against one), and reordering a row's slots into
    `order` is a permutation."""
    rule = net.rules[tid]
    held = marking._tokens
    for place in rule.places:
        if place not in held:
            return []
    slots, arcs, shared = rule.join
    rows: list[tuple[str, ...]] = [()]
    for place, kind, new, checks, key in arcs:
        avail = held[place]
        if kind == "free":
            rows = [row + token for row in rows for token in avail]
        elif kind == "fixed":
            rows = [row for row in rows if key(row) in avail]
        else:
            matched = []
            for row in rows:
                for token in avail:
                    ext = row + new(token)
                    if all(token[i] == ext[s] for i, s in checks):
                        matched.append(ext)
            rows = matched
        if not rows:
            return []
    for place, keys in shared:
        # arcs on one place that pick the same token need as many copies
        avail = held[place]
        rows = [row for row in rows if _available(avail, [key(row) for key in keys])]
    return sorted(rows) if slots is None else sorted(map(slots, rows))


def _available(avail: Mapping, tokens: list) -> bool:
    return len(set(tokens)) == len(tokens) or all(
        avail.get(token, 0) >= tokens.count(token) for token in tokens)


def enabled_bindings(net: Net, marking: Marking) -> list[tuple[str, Binding]]:
    """Deterministic list of every enabled (transition, binding) firing."""
    out: list[tuple[str, Binding]] = []
    for t in net.transitions:
        order = net.rules[t.id].order
        out.extend((t.id, Binding(tuple(zip(order, row))))
                   for row in transition_bindings(net, marking, t.id))
    out.sort(key=lambda f: (f[0], f[1].values))
    return out


def _fire_untimed(rule: FiringRule, marking: Marking, values, fresh, mint):
    """Fire `rule` on `marking`, in place, under the (name, identifier)
    pairs `values` and `fresh`, read as they are (a name given twice takes
    its last identifier, `fresh` over `values`): take the row's tokens
    (NotEnabled unless the marking holds them all, with those before the
    first missing one taken: callers fire on a copy they then drop), bind
    each nu-variable the pairs leave open to mint(type), in `rule.nu` order,
    and give.  Returns the minted pairs and the consumed and produced pairs."""
    full = dict(values)
    if fresh:
        full.update(fresh)
    try:
        row = tuple([full[name] for name in rule.order])
    except KeyError as e:
        raise NotEnabled(f"{rule.transition.id}: variable {e.args[0]!r} unbound") from None
    consumed = rule.take(row)
    try:
        marking.remove_each(consumed)
    except ValueError:
        raise NotEnabled(f"{rule.transition.id} not enabled under {dict(values)}") from None
    minted = ()
    if rule.nu:
        minted = tuple([(name, mint(otype)) for name, otype in zip(rule.nu, rule.nu_types)
                        if name not in full])
        full.update(minted)
        row += tuple([full[name] for name in rule.nu])
    produced = rule.give(row)
    for pid, tok in produced:
        marking.add(pid, tok)
    return minted, consumed, produced


def fire(net: Net, marking: Marking, firing: tuple[str, Binding],
         id_gen: IdGenerator) -> tuple[Marking, FireResult]:
    """Fire `firing` atomically; nu-variables the binding leaves open draw
    identifiers from id_gen."""
    tid, binding = firing
    rule = net.rules.get(tid)
    if rule is None:
        raise NotEnabled(f"unknown transition {tid!r}")
    result = marking.copy()
    minted, consumed, produced = _fire_untimed(rule, result, binding.values, binding.fresh,
                                               id_gen.fresh)
    if minted:
        binding = Binding(binding.values, binding.fresh + minted)
    for _, tok in produced:
        for ident in tok:
            id_gen.register(ident)
    return result, FireResult(tid, binding, consumed, produced)


def _mint_none(otype: str):
    raise NotEnabled(f"a replayed binding leaves a nu-variable of type {otype!r} open")


def replay(net: Net, trace, extra_tokens=()) -> bool:
    """True iff the (transition, binding) sequence fires from the initial
    marking; fresh identifiers are taken from the bindings, not regenerated.

    extra_tokens injects (place, token) pairs up front, e.g. the spontaneous
    arrivals of a simulation run (more tokens never disable a firing).
    """
    return replay_pairs(net, ((tid, b.values, b.fresh) for tid, b in trace), extra_tokens)


def replay_pairs(net: Net, firings, extra_tokens=()) -> bool:
    """`replay` over (transition, values, fresh) triples, the pairs as a
    Binding or a trace record holds them, read as they are."""
    marking = net.initial_marking.copy()
    marking.move((), extra_tokens)
    rules = net.rules
    for tid, values, fresh in firings:
        rule = rules.get(tid)
        if rule is None:
            return False
        try:
            _fire_untimed(rule, marking, values, fresh, _mint_none)
        except NotEnabled:
            return False
    return True


def bounded_language(net: Net, depth: int, cap: int = 1_000_000) -> set:
    """All firing sequences of length <= depth, fresh identifiers canonicalized
    to ~1, ~2, ... in order of first appearance along each sequence."""
    if depth > 12:
        raise ValueError("depth > 12 is not supported (state explosion guard)")
    sequences: set = {()}
    stack: list[tuple[Marking, tuple, int]] = [(net.initial_marking.copy(), (), 0)]
    nodes = 0
    while stack:
        marking, seq, nfresh = stack.pop()
        if len(seq) >= depth:
            continue
        for tid, binding in enabled_bindings(net, marking):
            nodes += 1
            if nodes > cap:
                raise ExplosionGuard(f"bounded_language explored more than {cap} nodes")
            rule = net.rules[tid]
            fresh_ids = itertools.count(nfresh + 1)
            m2 = marking.copy()
            minted, _, _ = _fire_untimed(rule, m2, binding.values, (),
                                         lambda _otype: f"~{next(fresh_ids)}")
            seq2 = seq + ((tid, tuple(sorted(binding.values + minted))),)
            sequences.add(seq2)
            stack.append((m2, seq2, nfresh + len(rule.nu)))
    return sequences
