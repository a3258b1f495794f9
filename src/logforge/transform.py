"""Model transformations: the union of a net with a mapped pattern fragment.

`apply` looks up the pattern of an application's code, checks the mapping
against it and builds the fragment.  It never touches pre-existing elements;
it only adds the fragment's created places, transitions, arcs, object types
and initial tokens, and attaches the fragment's simulation annotations.
`apply_sequence` chains transformations and keeps a provenance ledger whose
entry for each application lists the elements its fragment created.
"""
from __future__ import annotations

from dataclasses import dataclass

from .nets import Diagnostic, Net
from .patterns import (BuiltFragment, PatternApplication, _mapping_to_json,
                       _params_to_json, lookup)


class InvalidMapping(Exception):
    def __init__(self, diagnostics, index: int | None = None):
        self.diagnostics = list(diagnostics)
        self.index = index
        where = f" (application #{index})" if index is not None else ""
        super().__init__("invalid mapping" + where + ": " +
                         "; ".join(d.message for d in self.diagnostics))

    def __reduce__(self):  # a dataset cell's error is pickled under --jobs
        return type(self), (self.diagnostics, self.index)


class OrderViolation(Exception):
    pass


def validate_mapping(net: Net, app: PatternApplication) -> list[Diagnostic]:
    """Check that `app` has an application id, maps every wildcard of its
    pattern to a suitable element of `net`, gives no mapping key or parameter
    the pattern does not read, and meets the pattern's requirements."""
    pattern = lookup(app.code)
    out: list[Diagnostic] = []
    seen_per_kind: dict[str, dict] = {}

    if not app.application_id:  # every created element and provenance tag names it
        out.append(Diagnostic("ProvenanceInvalid", app.code,
                              f"an application of {app.code} needs a non-empty application_id"))

    unknown = [f"{what} key(s) {sorted(keys, key=str)}" for what, keys in (
        ("mapping", app.mapping.keys() - {wc.name for wc in pattern.wildcards}),
        ("params", app.params.keys() - pattern.params)) if keys]
    if unknown:
        out.append(Diagnostic("UnknownKey", app.application_id,
                              f"{app.code} reads no {' and no '.join(unknown)}"))

    for wc in pattern.wildcards:
        if wc.name not in app.mapping:
            out.append(Diagnostic("MissingMapping", wc.name,
                                  f"wildcard <{wc.name}> of {app.code} is unmapped"))
            continue
        values = app.many(wc.name) if wc.many else (app.one(wc.name),)
        if wc.many and not values:
            out.append(Diagnostic("MissingMapping", wc.name,
                                  f"wildcard <{wc.name}> mapped to an empty set"))
        for value in values:
            if not isinstance(value, str):
                out.append(Diagnostic("KindMismatch", wc.name,
                                      f"<{wc.name}> must map to string values, got {value!r}"))
                continue
            if wc.kind == "place" and value not in net.place_map:
                out.append(Diagnostic("UnresolvedElement", value,
                                      f"<{wc.name}> maps to unknown place {value!r}"))
            elif wc.kind == "transition" and value not in net.transition_map:
                out.append(Diagnostic("UnresolvedElement", value,
                                      f"<{wc.name}> maps to unknown transition {value!r}"))
            elif wc.kind == "object_type" and value not in net.type_map:
                out.append(Diagnostic("UnresolvedElement", value,
                                      f"<{wc.name}> maps to unknown object type {value!r}"))
            prev = seen_per_kind.setdefault(wc.kind, {})
            if value in prev and prev[value] != wc.name:
                out.append(Diagnostic(
                    "InjectivityViolation", value,
                    f"<{prev[value]}> and <{wc.name}> both map to {value!r}"))
            prev[value] = wc.name

    if out:
        return out

    for req in pattern.requirements:
        msg = req.check(net, app)
        if msg:
            code = "RoleMismatch" if "role" in req.name else "RequirementFailed"
            out.append(Diagnostic(code, req.name, f"{app.code}: {msg}"))
    return out


def apply(net: Net, app: PatternApplication) -> Net:
    """The net unioned with the elements `app`'s pattern creates."""
    return _union(net, app)[0]


def _union(net: Net, app: PatternApplication) -> tuple[Net, BuiltFragment]:
    """`apply`'s net, and the fragment whose elements it added."""
    diagnostics = validate_mapping(net, app)
    if diagnostics:
        raise InvalidMapping(diagnostics)

    built = lookup(app.code).build(net, app)
    clashes = [p.id for p in built.places if p.id in net.place_map]
    clashes += [t.id for t in built.transitions if t.id in net.transition_map]
    if clashes:
        raise InvalidMapping([Diagnostic("DuplicateId", c, f"created id {c!r} already exists")
                              for c in clashes])

    marking = net.initial_marking.copy()
    for pid, token in built.initial_tokens:
        marking.add(pid, token)

    return Net(
        object_types=net.object_types + tuple(built.object_types),
        places=net.places + tuple(built.places),
        transitions=net.transitions + tuple(built.transitions),
        arcs=net.arcs + tuple(built.arcs),
        initial_marking=marking,
        final_marking=net.final_marking,
        annotations=net.annotations.merged_with(
            weights=tuple(built.weights.items()),
            overrides=tuple(built.overrides),
            probes=(built.probe,) if built.probe else (),
            report_rules=tuple(built.report_rules),
        ),
    ), built


@dataclass(frozen=True)
class LedgerEntry:
    application_id: str
    code: str
    origin: str
    created_places: tuple[str, ...]
    created_transitions: tuple[str, ...]
    created_arc_count: int
    mapping: dict
    params: dict

    def to_dict(self) -> dict:
        return {
            "application_id": self.application_id,
            "code": self.code,
            "origin": self.origin,
            "created_places": list(self.created_places),
            "created_transitions": list(self.created_transitions),
            "created_arc_count": self.created_arc_count,
            "mapping": _mapping_to_json(self.mapping),
            "params": _params_to_json(self.params),
        }


@dataclass(frozen=True)
class ProvenanceLedger:
    entries: tuple[LedgerEntry, ...] = ()

    def to_dict(self) -> dict:
        return {"entries": [e.to_dict() for e in self.entries]}


def apply_sequence(net: Net, apps) -> tuple[Net, ProvenanceLedger]:
    """Fold `apply` over the applications, behavioral before recording."""
    apps = list(apps)
    seen_recording = False
    seen_ids: set[str] = set()
    for i, app in enumerate(apps):
        if app.application_id in seen_ids:
            raise InvalidMapping([Diagnostic("DuplicateId", app.application_id,
                                             "application id reused")], index=i)
        seen_ids.add(app.application_id)
        if lookup(app.code).origin == "recording":
            seen_recording = True
        elif seen_recording:
            raise OrderViolation(
                f"application #{i} ({app.code}) is behavioral but follows a recording one")

    entries: list[LedgerEntry] = []
    current = net
    for i, app in enumerate(apps):
        try:
            current, built = _union(current, app)
        except InvalidMapping as e:
            raise InvalidMapping(e.diagnostics, index=i) from None
        entries.append(LedgerEntry(
            application_id=app.application_id,
            code=app.code,
            origin=lookup(app.code).origin,
            created_places=tuple(p.id for p in built.places),
            created_transitions=tuple(t.id for t in built.transitions),
            created_arc_count=len(built.arcs),
            mapping=dict(app.mapping),
            params=dict(app.params),
        ))
    return current, ProvenanceLedger(tuple(entries))
