"""Canonical JSON encoding and digests; net <-> dict conversion.

Field ordering is stable (sorted keys, compact separators) so that equal
values always produce equal bytes and digests.
"""
from __future__ import annotations

import hashlib
import json

from .nets import (BASE, Arc, Marking, Net, ObjectType, Place, ProvenanceTag,
                   Transition, Variable)
from .timing import ConfigInvalid, SimAnnotations, names, reject_unknown_keys, typed

SCHEMA_VERSION = "1"


# the one encoder of every model, document, header and JSONL line: keys
# sorted at every level, compact separators, built once and reused.  No
# encoded value holds a cycle, so the encoder does not look for one.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                            check_circular=False)
if json.encoder.c_make_encoder is None:
    canonical_json = _ENCODER.encode
else:
    # `JSONEncoder.encode` builds a new C encoder on every call; this one is
    # built once, with the same settings, and gives the same text
    _c_encode = json.encoder.c_make_encoder(
        None, _ENCODER.default, json.encoder.encode_basestring, None,
        _ENCODER.key_separator, _ENCODER.item_separator, True, False, True)

    def canonical_json(obj) -> str:
        return "".join(_c_encode(obj, 0))


def digest_of(obj) -> str:
    return text_digest(canonical_json(obj))


def text_digest(text: str) -> str:
    """The digest of a canonical JSON text (`digest_of` of what it encodes)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _variable_to_dict(v: Variable) -> dict:
    d = {"name": v.name, "object_type": v.object_type}
    if v.fresh:
        d["fresh"] = True
    return d


def _variable_from_dict(d: dict) -> Variable:
    reject_unknown_keys(d, _VARIABLE_KEYS, "variable")
    return Variable(typed(d, "name", (str,)), typed(d, "object_type", (str,)),
                    typed(d, "fresh", (bool,), False))


def provenance_to_dict(p: ProvenanceTag) -> dict:
    """The tag's JSON object, without the fields that are None."""
    d = {"origin": p.origin}
    if p.pattern_code is not None:
        d["pattern_code"] = p.pattern_code
    if p.application_id is not None:
        d["application_id"] = p.application_id
    if p.shadow_of is not None:
        d["shadow_of"] = p.shadow_of
    return d


def provenance_from_dict(d: dict, tags: dict | None = None, check=None) -> ProvenanceTag:
    """The tag in JSON object `d`, which names its `origin` even when it is
    "base"; ConfigInvalid says what is malformed.  Equal tags decoded with
    one `tags` table are one ProvenanceTag.  `check`, if given, is called on
    each tag built anew, so once per distinct tag of one table, and returns
    the tag's breaches, as messages: the first raises ConfigInvalid."""
    reject_unknown_keys(d, _PROVENANCE_KEYS, "'provenance'")
    key = (d.get("origin"), d.get("pattern_code"), d.get("application_id"),
           d.get("shadow_of"))
    if tags is not None:
        try:
            return tags[key]
        except (KeyError, TypeError):  # a new tag, or an unhashable and so malformed one
            pass
    origin, *rest = key
    if type(origin) is not str or not all(v is None or type(v) is str for v in rest):
        raise ConfigInvalid(f"'provenance' must hold a string 'origin' and strings or nulls, "
                            f"got {d!r}")
    tag = ProvenanceTag(*key)
    if check is not None and (breaches := check(tag)):
        raise ConfigInvalid(f"'provenance' {breaches[0]}")
    if tags is not None:
        tags[key] = tag
    return tag


def net_to_dict(net: Net) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "object_types": [{"name": t.name, "prefix": t.prefix} for t in net.object_types],
        "places": [{"id": p.id, "type_tuple": list(p.type_tuple), "role_hint": p.role_hint}
                   for p in net.places],
        "transitions": [
            {
                "id": t.id,
                "activity_label": t.activity_label,
                "provenance": provenance_to_dict(t.provenance),
                "record_spec": None if t.record_spec is None else list(t.record_spec),
            }
            for t in net.transitions
        ],
        "arcs": [
            {"source": a.source, "target": a.target,
             "inscription": [_variable_to_dict(v) for v in a.inscription]}
            for a in net.arcs
        ],
        "initial_marking": net.initial_marking.to_lists(),
        "final_marking": None if net.final_marking is None else net.final_marking.to_lists(),
        "annotations": net.annotations.to_dict(),
    }


_MODEL_KEYS = frozenset(("schema_version", "object_types", "places", "transitions", "arcs",
                         "initial_marking", "final_marking", "annotations"))
_VARIABLE_KEYS = frozenset(("name", "object_type", "fresh"))
_PROVENANCE_KEYS = frozenset(("origin", "pattern_code", "application_id", "shadow_of"))


def _items(d: dict, key: str, keys: tuple, what: str):
    """The objects of the list d[key], each once it has only `keys`."""
    items = typed(d, key, (list,))
    known = frozenset(keys)
    for item in items:
        reject_unknown_keys(item, known, what)
    return items


def net_from_dict(d: dict) -> Net:
    """The net `net_to_dict` writes.  An unknown key of the model or of any
    object in it, or a missing or mistyped field, raises ConfigInvalid."""
    reject_unknown_keys(d, _MODEL_KEYS, "model")
    final = typed(d, "final_marking", (dict,), None)
    return Net(
        object_types=tuple([ObjectType(typed(t, "name", (str,)), typed(t, "prefix", (str,), ""))
                            for t in _items(d, "object_types", ("name", "prefix"), "object type")]),
        places=tuple([Place(typed(p, "id", (str,)), names(p, "type_tuple"),
                            typed(p, "role_hint", (str,), "regular"))
                      for p in _items(d, "places", ("id", "type_tuple", "role_hint"), "place")]),
        transitions=tuple([
            Transition(typed(t, "id", (str,)), typed(t, "activity_label", (str,), None),
                       provenance_from_dict(t["provenance"]) if "provenance" in t else BASE,
                       names(t, "record_spec", None))
            for t in _items(d, "transitions",
                            ("id", "activity_label", "provenance", "record_spec"), "transition")]),
        arcs=tuple([
            Arc(typed(a, "source", (str,)), typed(a, "target", (str,)),
                tuple(map(_variable_from_dict, typed(a, "inscription", (list,)))))
            for a in _items(d, "arcs", ("source", "target", "inscription"), "arc")]),
        initial_marking=Marking.of(typed(d, "initial_marking", (dict,), {})),
        final_marking=None if final is None else Marking.of(final),
        annotations=SimAnnotations.from_dict(typed(d, "annotations", (dict,), {})),
    )


def net_digest(net: Net) -> str:
    return digest_of(net_to_dict(net))
