"""The deviation-pattern catalog.

Each pattern is an abstract net fragment: wildcards to be matched onto an
existing net, requirements on that mapping and its parameters, and a builder
of the elements created next to the matched ones.  Each parameter a pattern
reads is declared once, by the requirement that checks it
(`Requirement.params`); `Pattern.params` is their union.  Recording-error patterns
(RI_*) model faulty logging mechanisms, behavioral patterns (BI_*) model
outliers in process execution.  All blueprints are additive: matched
elements are never modified, so the transformed net keeps every behavior of
the original.  `CATALOG` holds one `Pattern` per code.

Created element ids are templated as "<local-name>#<application-id>", which
keeps repeated applications of the same pattern disjoint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

from .nets import ORIGINS, Arc, Net, ObjectType, Place, ProvenanceTag, Transition, Variable
from .timing import (ConfigInvalid, Delay, FrequencyProbe, ReportRule, TimingOverride, names,
                     reject_unknown_keys, typed)


class UnknownPattern(Exception):
    pass


@dataclass(frozen=True)
class Wildcard:
    name: str
    kind: str  # place | transition | object_type | label
    many: bool = False


@dataclass(frozen=True)
class PatternApplication:
    """One concrete use of a pattern: the injective wildcard mapping plus
    free parameters (weights, bypassed variables, delay shapes, ...)."""

    application_id: str
    code: str
    mapping: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    competitors: tuple[str, ...] = ()

    def one(self, name: str):
        return self.mapping[name]

    def many(self, name: str) -> tuple:
        v = self.mapping[name]
        return tuple(v) if isinstance(v, (list, tuple)) else (v,)

    def to_dict(self) -> dict:
        return {
            "application_id": self.application_id,
            "code": self.code,
            "mapping": _mapping_to_json(self.mapping),
            "params": _params_to_json(self.params),
            "competitors": list(self.competitors),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PatternApplication":
        """Read what `to_dict` writes: keys, then fields; a defect raises ConfigInvalid."""
        reject_unknown_keys(d, _APPLICATION_KEYS, "pattern application")
        return cls(
            application_id=typed(d, "application_id", (str,)),
            code=typed(d, "code", (str,)),
            mapping=dict(typed(d, "mapping", (dict,), {})),
            params=_params_from_json(typed(d, "params", (dict,), {})),
            competitors=names(d, "competitors", ()),
        )


def applications_from_json(items: list, where: str) -> list[PatternApplication]:
    """The applications in JSON list `items`; ConfigInvalid names `where[index]`."""
    apps = []
    for i, d in enumerate(items):
        try:
            apps.append(PatternApplication.from_dict(d))
        except ConfigInvalid as e:
            raise ConfigInvalid(f"{where}[{i}]: {e}") from None
    return apps


def _mapping_to_json(mapping: dict) -> dict:
    return {k: (list(v) if isinstance(v, (list, tuple)) else v) for k, v in mapping.items()}


def _params_to_json(params: dict) -> dict:
    out = {}
    for k, v in params.items():
        if isinstance(v, Delay):
            out[k] = {"__delay__": v.to_dict()}
        elif isinstance(v, tuple):
            out[k] = list(v)
        else:
            out[k] = v
    return out


def _params_from_json(params: dict) -> dict:
    out = {}
    for k, v in params.items():
        if isinstance(v, dict) and "__delay__" in v:
            out[k] = Delay.from_dict(v["__delay__"])
        else:
            out[k] = v
    return out


_APPLICATION_KEYS = frozenset(f.name for f in fields(PatternApplication))


@dataclass(frozen=True)
class Requirement:
    """A machine-checkable restriction on the wildcard mapping and the
    parameters.  `check(net, app)` returns a message when it fails; it is
    only called once every wildcard of `app` resolves in `net`.  `params`
    names the parameters it checks."""

    name: str
    description: str
    check: Callable[[Net, PatternApplication], str | None] = field(compare=False, repr=False)
    params: tuple[str, ...] = ()


@dataclass
class BuiltFragment:
    """A pattern made concrete under one mapping: the elements to be
    unioned into the target net.  Builders add each created transition with
    `create`, so `weights` and `report_rules` follow `transitions` one to one."""

    places: list[Place] = field(default_factory=list)
    transitions: list[Transition] = field(default_factory=list)
    arcs: list[Arc] = field(default_factory=list)
    object_types: list[ObjectType] = field(default_factory=list)
    initial_tokens: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    overrides: list[TimingOverride] = field(default_factory=list)
    weights: dict = field(default_factory=dict)
    probe: FrequencyProbe | None = None
    report_rules: list[ReportRule] = field(default_factory=list)

    def create(self, app: PatternApplication, local: str, weight, *,
               label: str | None = None, shadow: str | None = None,
               record_spec: tuple[str, ...] | None = None,
               responsible: tuple[str, ...] | None = None,
               affected: tuple[str, ...] | None = (), delay: Delay | None = None) -> str:
        """Add the transition `local` creates under `app`, together with its
        weight, its report rule and, when given, a fixed production delay;
        return its id."""
        tid = _eid(local, app)
        self.transitions.append(Transition(tid, label, _prov(app, shadow), record_spec))
        self.weights[tid] = weight
        if delay is not None:
            self.overrides.append(TimingOverride("delay", (tid,), app.application_id,
                                                 app.code, delay=delay))
        self.report_rules.append(ReportRule(tid, responsible, affected))
        return tid


@dataclass(frozen=True)
class Pattern:
    """One catalog entry.  `build(net, app)` trusts that `app` meets the
    wildcards and requirements (`transform.validate_mapping`)."""

    code: str
    description: str
    wildcards: tuple[Wildcard, ...]
    requirements: tuple[Requirement, ...]
    build: Callable[[Net, PatternApplication], BuiltFragment] = field(compare=False, repr=False)

    @property
    def params(self) -> frozenset[str]:
        """Every parameter `build` reads, as its requirements declare them; an
        application may give no other."""
        return frozenset().union(*(r.params for r in self.requirements))

    @property
    def origin(self) -> str:
        return _origin_of(self.code)


def _eid(local: str, app: PatternApplication) -> str:
    return f"{local}#{app.application_id}"


def _origin_of(code: str) -> str:
    return "behavioral" if code.startswith("BI") else "recording"


def provenance_breaches(tag: ProvenanceTag) -> list[str]:
    """What makes `tag` mean nothing, one message per breach, in field
    order (empty = none).  Its `origin` is one of `nets.ORIGINS`; a
    `pattern_code` names a catalog pattern of that origin, so a base tag
    names none; and a created (non-base) tag names its application.
    `nets.validate_net` reports each breach of a model's tags, the trace
    reader the first of a record's."""
    origin, code = tag.origin, tag.pattern_code
    out = []
    if origin not in ORIGINS:
        out.append(f"origin {origin!r} is not one of {list(ORIGINS)}")
    if code is not None:
        pattern = CATALOG.get(code)
        if pattern is None:
            out.append(f"pattern_code {code!r} names no catalog pattern")
        elif pattern.origin != origin:
            out.append(f"origin {origin!r} disagrees with pattern {code!r}, whose origin is "
                       f"{pattern.origin!r}")
    if origin != "base" and not tag.application_id:
        out.append(f"origin {origin!r} needs an application_id")
    return out


def _prov(app: PatternApplication, shadow: str | None = None) -> ProvenanceTag:
    return ProvenanceTag(origin=_origin_of(app.code), pattern_code=app.code,
                         application_id=app.application_id, shadow_of=shadow)


def _copy_arcs(net: Net, tid: str, new_tid: str) -> list[Arc]:
    return [*(Arc(a.source, new_tid, a.inscription) for a in net.inputs_of(tid)),
            *(Arc(new_tid, a.target, a.inscription) for a in net.outputs_of(tid))]


def _recorded_vars(net: Net, t: Transition) -> tuple[str, ...]:
    if t.record_spec is not None:
        return t.record_spec
    arcs = (*net.inputs_of(t.id), *net.outputs_of(t.id))
    return tuple(dict.fromkeys(v.name for a in arcs for v in a.inscription))


def _probe(app: PatternApplication, deviation, competitors=None) -> FrequencyProbe:
    comp = tuple(competitors) if competitors is not None else app.competitors
    return FrequencyProbe(app.application_id, app.code, tuple(deviation), comp)


# a duty cycle is expanded into two weight pieces per period
_MAX_DUTY_PERIODS = 10 ** 5


def duty_cycle(weight: float, period: float, window: float, horizon: float,
               offset: float = 0.0) -> tuple[tuple[float, float], ...]:
    """Piecewise weight that is `weight` for `window` seconds at the start of
    each `period` from `offset` until `horizon`, and 0 otherwise."""
    pieces = [(0.0, 0.0)] if offset > 0 else []
    t = offset
    while t < horizon:
        pieces += [(t, weight), (t + window, 0.0)]
        t += period
    return tuple(pieces)


def _cycle(params: dict) -> tuple[float, float, float, float] | None:
    """(period, window, horizon, offset) of the duty cycle `params` ask for.
    It ends at `weight_horizon`, else at `weight_until`, else after 1e7 s;
    an application gives at most one of the two (`_weight_end`)."""
    period = params.get("weight_period")
    if not period:
        return None
    until = params.get("weight_until")
    return (float(period), float(params.get("weight_window", period / 8.0)),
            float(params.get("weight_horizon", 1e7 if until is None else until)),
            float(params.get("weight_offset", 0.0)))


def _weight(params: dict) -> tuple[tuple[float, float], ...]:
    """Piecewise weight for a deviation entry transition.

    params['weight'] applies from time 0; 'weight_until' shuts the deviation
    off for good; 'weight_period'/'weight_window' instead enable it only for
    a window at the start of each period (a duty cycle) until 'weight_until'
    or 'weight_horizon', which keeps always-enabled deviations from soaking
    up every quiet moment of a run.
    """
    w = float(params.get("weight", 0.05))
    cycle = _cycle(params)
    if cycle:
        return duty_cycle(w, *cycle)
    until = params.get("weight_until")
    if until is None:
        return ((0.0, w),)
    return ((0.0, w), (float(until), 0.0))


# repair/undo transitions keep base weight so borrowed state always drains back
_ALWAYS = ((0.0, 1.0),)


def _pace(params: dict) -> float:
    return float(params.get("pace_s", 600.0))


# ---------------------------------------------------------------------------
# requirements shared by several patterns

def _req(name, description, params=()):
    def deco(fn):
        return Requirement(name, description, fn, params)
    return deco


def _place(net: Net, app: PatternApplication, wc: str) -> Place:
    return net.place_map[app.one(wc)]


def _transition(net: Net, app: PatternApplication, wc: str) -> Transition:
    return net.transition_map[app.one(wc)]


def _labeled(wc: str) -> Requirement:
    @_req(f"{wc}_labeled", f"<{wc}> must be a labeled transition")
    def check(net, app):
        t = _transition(net, app, wc)
        return f"transition {t.id!r} is silent" if t.silent else None
    return check


def _role(wc: str, roles: tuple[str, ...]) -> Requirement:
    @_req(f"{wc}_role", f"<{wc}> must have role in {roles}")
    def check(net, app):
        p = _place(net, app, wc)
        if p.role_hint not in roles:
            return f"place {p.id!r} has role {p.role_hint!r}, need one of {roles}"
        return None
    return check


def _arity(wc: str, minimum: int = 1, exact: int | None = None) -> Requirement:
    @_req(f"{wc}_arity", f"<{wc}> arity constraint")
    def check(net, app):
        p = _place(net, app, wc)
        if exact is not None and len(p.type_tuple) != exact:
            return f"place {p.id!r} has arity {len(p.type_tuple)}, need exactly {exact}"
        if len(p.type_tuple) < minimum:
            return f"place {p.id!r} has arity {len(p.type_tuple)}, need >= {minimum}"
        return None
    return check


def _param(name: str, need: str, ok: Callable[[object], bool]) -> Requirement:
    """The one check of a parameter a builder converts."""
    @_req(f"{name}_param", f"params[{name!r}], when given, must be {need}", (name,))
    def check(net, app):
        if name in app.params and not ok(app.params[name]):
            return f"params[{name!r}] must be {need}, got {app.params[name]!r}"
        return None
    return check


def _finite(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


def _number(name: str, need: str = "a finite number >= 0", ok=lambda v: v >= 0) -> Requirement:
    return _param(name, need, lambda v: _finite(v) and ok(v))


def _positive(name: str) -> Requirement:
    return _number(name, "a finite number > 0", lambda v: v > 0)


# what `_weight` reads; a period <= 0 would never reach the horizon, a tiny
# one would expand into an unbounded number of pieces, and a deviation shut
# off at time 0 could never fire (its pieces at time 0 would sort the
# shut-off first, so it would in fact never be shut off)
_WEIGHT_PARAMS = (_number("weight"), _positive("weight_until"), *map(_number, (
    "weight_window", "weight_offset", "weight_horizon")), _positive("weight_period"))


@_req("weight_periods", f"a duty cycle has 1 to {_MAX_DUTY_PERIODS} periods before its end")
def _weight_periods(net, app):
    if any(req.check(net, app) for req in _WEIGHT_PARAMS):
        return None  # the parameter's own requirement reports it
    cycle = _cycle(app.params)
    if cycle is None:
        return None
    period, _, horizon, offset = cycle
    # a cycle with no period would leave no weight pieces, read as weight 1.0
    if horizon <= offset:
        return (f"the duty cycle ends at {horizon}, not after its weight_offset {offset}, "
                "so it has no period")
    if (horizon - offset) / period > _MAX_DUTY_PERIODS:
        return (f"weight_period {period} gives more than {_MAX_DUTY_PERIODS} periods before "
                f"the horizon {horizon}; lengthen the period or set weight_horizon")
    return None


@_req("weight_end", "a duty cycle ends at weight_until or at weight_horizon, not at both")
def _weight_end(net, app):
    if {"weight_period", "weight_until", "weight_horizon"} <= app.params.keys():
        return ("weight_until and weight_horizon both end the duty cycle of weight_period; "
                "give one")
    return None


_WEIGHT = (*_WEIGHT_PARAMS, _weight_periods, _weight_end)
_PACE = _number("pace_s")


def _delay(name: str) -> Requirement:
    return _param(name, "a delay", lambda v: isinstance(v, Delay))


def _resource_component(p: Place, pool: Place, params: dict) -> int:
    """Index of the component of p holding pool's resource:
    params['component'], or else the only component of pool's type."""
    if "component" in params:
        return params["component"]
    return p.type_tuple.index(pool.type_tuple[0])


def _pool_match(p_wc: str, pool_wc: str) -> Requirement:
    """Paired with `_arity(pool_wc, exact=1)`, which reports a pool of
    another arity."""

    @_req("pool_type", f"<{pool_wc}>'s type must occur once in <{p_wc}> (or be selected)",
          ("component",))
    def check(net, app):
        p = _place(net, app, p_wc)
        pool = _place(net, app, pool_wc)
        if len(pool.type_tuple) != 1:
            return None
        rtype = pool.type_tuple[0]
        if "component" in app.params:
            idx = app.params["component"]
            if type(idx) is not int:
                return f"params['component'] must be an integer index, got {idx!r}"
            if not 0 <= idx < len(p.type_tuple):
                return (f"component {idx} is out of range for {p.id!r}, "
                        f"which has arity {len(p.type_tuple)}")
            if p.type_tuple[idx] != rtype:
                return f"component {idx} of {p.id!r} is not of type {rtype!r}"
            return None
        hits = p.type_tuple.count(rtype)
        if hits != 1:
            return f"{p.id!r} has {hits} components of type {rtype!r}; pass params['component']"
        return None
    return check


# ---------------------------------------------------------------------------
# blueprints, each with the requirements only it has

def _twin(net: Net, app: PatternApplication, local: str, **created) -> BuiltFragment:
    """A created transition on the same pre- and post-set as <t>, competing
    with it; `created` goes to `BuiltFragment.create`."""
    t = net.transition_map[app.one("t")]
    built = BuiltFragment()
    tid = built.create(app, local, _weight(app.params), shadow=t.id, **created)
    built.arcs = _copy_arcs(net, t.id, tid)
    built.probe = _probe(app, [tid], app.competitors or (t.id,))
    return built


def _build_shadow_silent(local_prefix: str):
    """Shared blueprint of RI_mi^e and BI_3: a silent twin of <t>, so the
    activity happens without leaving an event."""
    return lambda net, app: _twin(net, app, f"{local_prefix}_{app.one('t')}")


def _build_wrong_label(net: Net, app: PatternApplication) -> BuiltFragment:
    """RI_in^e / RI_in^a: a labeled twin of <t> carrying the wrong activity
    name <t_prime>."""
    t = net.transition_map[app.one("t")]
    label = app.one("t_prime")
    return _twin(net, app, f"{t.id}_as_{label.replace(' ', '_')}",
                 label=label, record_spec=t.record_spec)


@_req("t_prime_differs", "<t_prime> must be a non-empty label different from <t>'s")
def _t_prime_differs(net, app):
    label = app.one("t_prime")
    if not label:
        return "<t_prime> must be a non-empty label value"
    t = _transition(net, app, "t")
    if t.activity_label == label:
        return f"<t_prime> {label!r} equals the label of {t.id!r}"
    return None


def _bypass_vars(net: Net, t: Transition, app: PatternApplication) -> tuple[str, ...]:
    """params['vars'], or else every variable of the input arcs of t that
    carry only objects of the types <O>."""
    if "vars" in app.params:
        return tuple(app.params["vars"])
    otypes = app.many("O")
    return tuple(dict.fromkeys(v.name for a in net.inputs_of(t.id)
                               if all(v.object_type in otypes for v in a.inscription)
                               for v in a.inscription))


def _bypass_sides(net: Net, t: Transition, bypass: tuple[str, ...]):
    """Input/output arcs of t whose inscriptions consist solely of bypassed
    variables; the remaining arcs are kept by the missing-object twin."""
    bset = set(bypass)
    ins = [a for a in net.inputs_of(t.id) if {v.name for v in a.inscription} <= bset]
    outs = [a for a in net.outputs_of(t.id) if {v.name for v in a.inscription} <= bset]
    return ins, outs


def _build_missing_object(net: Net, app: PatternApplication) -> BuiltFragment:
    t = net.transition_map[app.one("t")]
    bypass = _bypass_vars(net, t, app)
    ins, outs = _bypass_sides(net, t, bypass)
    bset = set(bypass)
    w = _weight(app.params)
    built = BuiltFragment()

    recorded = tuple(v for v in _recorded_vars(net, t) if v not in bset)
    miss_id = built.create(app, f"{t.id}_missing_{'_'.join(app.many('O'))}", w,
                           label=t.activity_label, shadow=t.id, record_spec=recorded,
                           responsible=(), affected=None)
    # the bypass window has a duration, which also paces the pre/post cycle
    pre_id = built.create(app, f"tau_pre_{t.id}", w, shadow=t.id,
                          delay=Delay.constant(_pace(app.params)))
    post_id = built.create(app, f"tau_post_{t.id}", _ALWAYS, shadow=t.id)
    built.arcs = [Arc(a.source, miss_id, a.inscription) for a in net.inputs_of(t.id)
                  if a not in ins]
    built.arcs += [Arc(miss_id, a.target, a.inscription) for a in net.outputs_of(t.id)
                   if a not in outs]

    # bypass place p' holds the unrecorded objects while the twin fires
    order = tuple(v for a in ins for v in a.inscription)
    byp_pid = _eid(f"p_bypass_{t.id}", app)
    built.places.append(Place(byp_pid, tuple(v.object_type for v in order), role_hint="other"))
    built.arcs += [Arc(a.source, pre_id, a.inscription) for a in ins]
    built.arcs += [Arc(pre_id, byp_pid, order), Arc(byp_pid, post_id, order)]
    built.arcs += [Arc(post_id, a.target, a.inscription) for a in outs]
    built.probe = _probe(app, [miss_id], app.competitors or (t.id,))
    return built


@_req("bypass_pure", "bypassed objects must ride pure side arcs of <t>", ("vars",))
def _bypass_pure(net, app):
    names = app.params.get("vars", [])
    if not isinstance(names, (list, tuple)) or any(type(v) is not str for v in names):
        return f"params['vars'] must be a list of variable names, got {names!r}"
    t = _transition(net, app, "t")
    otypes = app.many("O")
    vtypes = net.variable_types(t.id)
    byp = _bypass_vars(net, t, app)
    if not byp:
        return f"no bypassable variables of types {otypes} on {t.id!r}"
    if sorted({vtypes.get(v) for v in byp}) != sorted(set(otypes)):
        return f"types of bypassed vars {byp} do not equal <O>={otypes}"
    bset = set(byp)
    for a in list(net.inputs_of(t.id)) + list(net.outputs_of(t.id)):
        names = {v.name for v in a.inscription}
        if names & bset and not names <= bset:
            return (f"arc {a.source}->{a.target} mixes bypassed and kept "
                    f"variables {sorted(names)}")
    ins, outs = _bypass_sides(net, t, byp)
    if not ins or not outs:
        return "bypassed variables need at least one pure input and output arc"
    return None


def _vars_of_type(net: Net, t: Transition, type_name: str) -> list[str]:
    return sorted({v.name for a in net.inputs_of(t.id) for v in a.inscription
                   if v.object_type == type_name})


def _build_wrong_object(net: Net, app: PatternApplication) -> BuiltFragment:
    t = net.transition_map[app.one("t")]
    pool = net.place_map[app.one("p_w")]
    var = app.params.get("var") or _vars_of_type(net, t, pool.type_tuple[0])[0]
    wrong = "wrong_" + var
    recorded = tuple(wrong if v == var else v for v in _recorded_vars(net, t))
    built = _twin(net, app, f"{t.id}_wrong_{var}", label=t.activity_label,
                  record_spec=recorded, responsible=(var, wrong), affected=None)
    tid = built.transitions[0].id
    loop = (Variable(wrong, pool.type_tuple[0]),)
    built.arcs += [Arc(pool.id, tid, loop), Arc(tid, pool.id, loop)]
    return built


@_req("var_of_pool_type", "the misrecorded variable must have <p_w>'s type", ("var",))
def _var_of_pool_type(net, app):
    t = _transition(net, app, "t")
    pool = _place(net, app, "p_w")
    if len(pool.type_tuple) != 1:
        return f"pool place {pool.id!r} must have arity 1"
    rtype = pool.type_tuple[0]
    var = app.params.get("var")
    if var is not None and type(var) is not str:
        return f"params['var'] must be a variable name, got {var!r}"
    if not var:
        hits = _vars_of_type(net, t, rtype)
        if len(hits) != 1:
            return (f"{len(hits)} candidate variables of type {rtype!r} on {t.id!r}; "
                    "pass params['var']")
        var = hits[0]
    if net.variable_types(t.id).get(var) != rtype:
        return f"variable {var!r} of {t.id!r} is not of type {rtype!r}"
    return None


def _build_batch_log(net: Net, app: PatternApplication) -> BuiltFragment:
    t1 = net.transition_map[app.one("t1")]
    t2 = net.transition_map[app.one("t2")]
    built = BuiltFragment()
    id1 = built.create(app, f"{t1.id}_batch_log", _weight(app.params),
                       label=t1.activity_label, shadow=t1.id, record_spec=t1.record_spec,
                       delay=app.params.get("batch_delay", Delay.constant(1800.0)))
    id2 = built.create(app, f"{t2.id}_batch_log", _ALWAYS,
                       label=t2.activity_label, shadow=t2.id, record_spec=t2.record_spec,
                       delay=Delay.constant(float(app.params.get("t2_delay_s", 0.0))))

    # tokens of a batch-logged run travel through twins of the places shared
    # by <t1> and <t2>, so the pair only ever processes its own batches
    shared = sorted({a.target for a in net.outputs_of(t1.id)}
                    & {a.source for a in net.inputs_of(t2.id)})
    twin = {pid: _eid(f"p_{pid}_batch_log", app) for pid in shared}
    built.places = [Place(twin[pid], net.place_map[pid].type_tuple, role_hint="other")
                    for pid in shared]
    built.arcs = [
        *(Arc(a.source, id1, a.inscription) for a in net.inputs_of(t1.id)),
        *(Arc(id1, twin.get(a.target, a.target), a.inscription) for a in net.outputs_of(t1.id)),
        *(Arc(twin.get(a.source, a.source), id2, a.inscription) for a in net.inputs_of(t2.id)),
        *(Arc(id2, a.target, a.inscription) for a in net.outputs_of(t2.id)),
    ]
    built.probe = _probe(app, [id1], app.competitors or (t1.id,))
    return built


@_req("connected", "post(<t1>) must intersect pre(<t2>)")
def _connected(net, app):
    t1 = _transition(net, app, "t1")
    t2 = _transition(net, app, "t2")
    post1 = {a.target for a in net.outputs_of(t1.id)}
    pre2 = {a.source for a in net.inputs_of(t2.id)}
    if not post1 & pre2:
        return f"{t1.id!r} and {t2.id!r} share no batching place"
    return None


def _build_coarse_timestamps(net: Net, app: PatternApplication) -> BuiltFragment:
    window = float(app.params.get("window_s", 3600.0))
    return BuiltFragment(
        overrides=[TimingOverride("coarsen", app.many("T"), app.application_id,
                                  app.code, window_s=window)],
        probe=_probe(app, []),
    )


@_req("targets_labeled", "every coarsened transition must be labeled")
def _targets_labeled(net, app):
    for tid in app.many("T"):
        if net.transition_map[tid].silent:
            return f"transition {tid!r} is silent, coarsening has no effect"
    return None


def _build_change_correlation(local: str, claim: bool):
    """BI_1 / BI_9: a silent transition swapping the resource component of a
    correlation token for another one from <p_r>.

    claim=True (BI_1): the correlation holds the resource, so the new one is
    taken out of the idle pool and the old one is released into it.
    claim=False (BI_9): the correlation merely remembers a resource that is
    still idle; the new resource is side-looped and the old reference is
    dropped, leaving pool availability untouched.
    """

    def build(net: Net, app: PatternApplication) -> BuiltFragment:
        p = net.place_map[app.one("p")]
        pool = net.place_map[app.one("p_r")]
        idx = _resource_component(p, pool, app.params)
        others = tuple(f"v{i}" for i in range(len(p.type_tuple)) if i != idx)
        built = BuiltFragment()
        # handing the work over takes a moment; also paces repeated swaps
        tid = built.create(app, f"{local}_{p.id}", _weight(app.params),
                           responsible=others, affected=(f"v{idx}", "w"),
                           delay=Delay.constant(_pace(app.params)))
        invars = tuple(Variable(f"v{i}", tn) for i, tn in enumerate(p.type_tuple))
        outvars = tuple(Variable("w", p.type_tuple[idx]) if i == idx else v
                        for i, v in enumerate(invars))
        w = (Variable("w", pool.type_tuple[0]),)
        released = (Variable(f"v{idx}", pool.type_tuple[0]),) if claim else w
        built.arcs = [Arc(p.id, tid, invars), Arc(pool.id, tid, w), Arc(tid, p.id, outvars),
                      Arc(tid, pool.id, released)]
        built.probe = _probe(app, [tid])
        return built

    return build


def _build_multitask(net: Net, app: PatternApplication) -> BuiltFragment:
    p1 = net.place_map[app.one("p1")]
    p2 = net.place_map[app.one("p2")]
    idx = _resource_component(p1, p2, app.params)
    others = tuple(f"v{i}" for i in range(len(p1.type_tuple)) if i != idx)
    mem_id = _eid(f"p_interrupted_{p1.id}", app)
    built = BuiltFragment(places=[Place(mem_id, p1.type_tuple, role_hint="other")])
    rel_id = built.create(app, f"tau_early_release_{p1.id}", _weight(app.params),
                          responsible=(f"v{idx}",), affected=others,
                          delay=Delay.constant(_pace(app.params)))
    clm_id = built.create(app, f"tau_late_claim_{p1.id}", _ALWAYS, responsible=())
    invars = tuple(Variable(f"v{i}", tn) for i, tn in enumerate(p1.type_tuple))
    res = (Variable(f"v{idx}", p2.type_tuple[0]),)
    built.arcs = [
        Arc(p1.id, rel_id, invars),
        Arc(rel_id, mem_id, invars),
        Arc(rel_id, p2.id, res),
        Arc(mem_id, clm_id, invars),
        Arc(p2.id, clm_id, res),  # same variable: the exact resource is reclaimed
        Arc(clm_id, p1.id, invars),
    ]
    built.probe = _probe(app, [rel_id])
    return built


def _build_overtake(net: Net, app: PatternApplication) -> BuiltFragment:
    q1 = net.place_map[app.one("p_q1")]
    q2 = net.place_map[app.one("p_q2")]
    budget = int(app.params.get("budget", 1))
    ot_name = ObjectType(f"overtake_permit#{app.application_id}", prefix="permit")
    guard_id = _eid(f"p_{q1.id}_overtake", app)
    built = BuiltFragment(
        places=[Place(guard_id, (ot_name.name,), role_hint="other")],
        object_types=[ot_name],
        initial_tokens=[(guard_id, (f"permit_{app.application_id}_{i + 1}",))
                        for i in range(budget)],
    )
    tid = built.create(app, f"tau_overtake_{q1.id}_{q2.id}", _weight(app.params),
                       responsible=("a2",), affected=("a1",))
    a1 =(Variable("a1", q1.type_tuple[0]), Variable("s1", q1.type_tuple[1]))
    a2 = (Variable("a2", q2.type_tuple[0]), Variable("s2", q2.type_tuple[1]))
    swapped1 = (Variable("a2", q1.type_tuple[0]), Variable("s1", q1.type_tuple[1]))
    swapped2 = (Variable("a1", q2.type_tuple[0]), Variable("s2", q2.type_tuple[1]))
    g = (Variable("g", ot_name.name),)
    built.arcs = [
        Arc(q1.id, tid, a1),
        Arc(q2.id, tid, a2),
        Arc(guard_id, tid, g),  # finite permits prevent a continuous swap cycle
        Arc(tid, q1.id, swapped1),
        Arc(tid, q2.id, swapped2),
    ]
    built.probe = _probe(app, [tid])
    return built


@_req("queues_compatible", "<p_q1> and <p_q2> must be distinct queue places of equal type")
def _queues_compatible(net, app):
    # the mapping's injectivity already keeps <p_q1> and <p_q2> apart
    q1 = _place(net, app, "p_q1")
    q2 = _place(net, app, "p_q2")
    if q1.type_tuple != q2.type_tuple:
        return f"type tuples differ: {q1.type_tuple} vs {q2.type_tuple}"
    if len(q1.type_tuple) != 2:
        return "queue places must pair an object with a queue-position object"
    return None


def _build_capacity(net: Net, app: PatternApplication) -> BuiltFragment:
    """A decrease parks a capacity token of <p_c> in a memory place; an
    increase puts it back twice, so the duplicate and its memory token carry
    the same identifiers.  Each has its own undo."""
    pc = net.place_map[app.one("p_c")]
    variant = app.params.get("variant", "both")
    pace = Delay.constant(_pace(app.params))
    w = _weight(app.params)
    invars = tuple(Variable(f"v{i}", tn) for i, tn in enumerate(pc.type_tuple))
    built = BuiltFragment()
    deviations = []
    for name, kind, extra in (("decrease", "dec", 0), ("increase", "inc", 2)):
        if variant not in (name, "both"):
            continue
        mem_id = _eid(f"p_{pc.id}_{kind}", app)
        built.places.append(Place(mem_id, pc.type_tuple, role_hint="other"))
        tid = built.create(app, f"tau_{pc.id}_{kind}", w, delay=pace)
        undo_id = built.create(app, f"tau_{pc.id}_{kind}_undo", _ALWAYS, responsible=())
        built.arcs += [Arc(pc.id, tid, invars), *[Arc(tid, pc.id, invars)] * extra,
                       Arc(tid, mem_id, invars), *[Arc(pc.id, undo_id, invars)] * extra,
                       Arc(mem_id, undo_id, invars), Arc(undo_id, pc.id, invars)]
        deviations.append(tid)
    built.probe = _probe(app, deviations)
    return built


@_req("variant", "variant must be increase, decrease or both", ("variant",))
def _variant(net, app):
    if app.params.get("variant", "both") not in ("increase", "decrease", "both"):
        return f"unknown variant {app.params.get('variant')!r}"
    return None


def _build_switch_role(net: Net, app: PatternApplication) -> BuiltFragment:
    r1 = net.place_map[app.one("p_r1")]
    r2 = net.place_map[app.one("p_r2")]
    t1, t2 = r1.type_tuple[0], r2.type_tuple[0]
    mem_id = _eid(f"p_{r1.id}_{r2.id}", app)
    built = BuiltFragment(places=[Place(mem_id, (t1, t2), role_hint="other")])
    sw_id = built.create(app, f"tau_switch_{r1.id}_{r2.id}", _weight(app.params),
                         delay=Delay.constant(_pace(app.params)))
    back_id = built.create(app, f"tau_switch_back_{r1.id}_{r2.id}",
                           ((0.0, float(app.params.get("undo_weight", 1.0))),),
                           responsible=())
    r = Variable("r", t1)
    # nu-variable: the borrowed role gets a fresh identifier referencing r
    alias_fresh = Variable("alias", t2, fresh=True)
    alias = Variable("alias", t2)
    built.arcs = [
        Arc(r1.id, sw_id, (r,)),
        Arc(sw_id, r2.id, (alias_fresh,)),
        Arc(sw_id, mem_id, (r, alias_fresh)),
        Arc(mem_id, back_id, (r, alias)),
        Arc(r2.id, back_id, (alias,)),
        Arc(back_id, r1.id, (r,)),
    ]
    built.probe = _probe(app, [sw_id])
    return built


@_req("distinct_types", "role places must hold resources of different types")
def _distinct_types(net, app):
    r1 = _place(net, app, "p_r1")
    r2 = _place(net, app, "p_r2")
    if len(r1.type_tuple) != 1 or len(r2.type_tuple) != 1:
        return "role places must have arity 1"
    if r1.type_tuple[0] == r2.type_tuple[0]:
        return "roles must be of different object types"
    return None


def _build_early_release(net: Net, app: PatternApplication) -> BuiltFragment:
    t = net.transition_map[app.one("t")]
    drop = set(app.params["drop"])
    ins = net.inputs_of(t.id)
    kept_in = [a for i, a in enumerate(ins) if i not in drop]
    bound = {v.name for a in kept_in for v in a.inscription}
    built = BuiltFragment()
    tid = built.create(app, f"tau_early_{t.id}", _weight(app.params), shadow=t.id)
    built.arcs = [Arc(a.source, tid, a.inscription) for a in kept_in]
    built.arcs += [Arc(tid, a.target, a.inscription) for a in net.outputs_of(t.id)
                   if all(v.fresh or v.name in bound for v in a.inscription)]
    built.probe = _probe(app, [tid], app.competitors or (t.id,))
    return built


@_req("droppable", "dropped arcs must leave a well-formed early release", ("drop",))
def _droppable(net, app):
    if "drop" not in app.params:
        return "params['drop'] (input-arc indices) is required"
    drop = app.params["drop"]
    if not isinstance(drop, (list, tuple)) or any(type(i) is not int for i in drop):
        return f"params['drop'] must be a list of integer input-arc indices, got {drop!r}"
    n = len(net.inputs_of(app.one("t")))
    if not drop or not set(drop) <= set(range(n)):
        return f"drop indices {sorted(set(drop))} out of range for {n} input arcs"
    if len(set(drop)) >= n:
        return "at least one input arc must remain"
    return None


def _build_long_duration(net: Net, app: PatternApplication) -> BuiltFragment:
    prob = float(app.params.get("probability", 0.05 / 1.05))
    delay = app.params.get("delay", Delay.exponential(1.0 / 7200.0))
    return BuiltFragment(
        overrides=[TimingOverride("slow_branch", (app.one("t"),), app.application_id,
                                  app.code, probability=prob, delay=delay)],
        probe=_probe(app, []),
    )


# ---------------------------------------------------------------------------
# catalog

_T = Wildcard("t", "transition")

CATALOG: dict[str, Pattern] = {p.code: p for p in (
    Pattern("RI_mi^e", "missing event: a silent twin of <t> executes the activity unrecorded",
            (_T,), (_labeled("t"), *_WEIGHT), _build_shadow_silent("tau_missing")),
    Pattern("RI_in^e", "incorrect event: a duplicate of <t> records the wrong activity <t_prime>",
            (_T, Wildcard("t_prime", "label")), (_labeled("t"), _t_prime_differs, *_WEIGHT),
            _build_wrong_label),
    Pattern("RI_in^a", "incorrect activity name: duplicate of <t> labeled <t_prime>",
            (_T, Wildcard("t_prime", "label")), (_labeled("t"), _t_prime_differs, *_WEIGHT),
            _build_wrong_label),
    Pattern("RI_mi^o", "missing object(s): twin of <t> unaware of <O>, which bypasses "
                       "through a created place",
            (_T, Wildcard("O", "object_type", many=True)),
            (_labeled("t"), _bypass_pure, *_WEIGHT, _PACE), _build_missing_object),
    Pattern("RI_in^o", "incorrect object: duplicate of <t> records an idle object from <p_w> "
                       "instead of the real one",
            (_T, Wildcard("p_w", "place")),
            (_labeled("t"), _role("p_w", ("resource_idle",)), _var_of_pool_type, *_WEIGHT),
            _build_wrong_object),
    Pattern("RI_in^p", "incorrect position: batch-logged pair; <t1> absorbs the batch "
                       "duration, <t2> takes none",
            (Wildcard("t1", "transition"), Wildcard("t2", "transition")),
            (_labeled("t1"), _labeled("t2"), _connected, *_WEIGHT,
             _number("t2_delay_s"), _delay("batch_delay")), _build_batch_log),
    Pattern("RI_mi^p", "missing position: emitted timestamps of <T> coarsen to a window",
            (Wildcard("T", "transition", many=True),), (_targets_labeled, _number("window_s")),
            _build_coarse_timestamps),
    Pattern("BI_1", "changing correlation: a silent transition hands the work over to a "
                    "new resource from <p_r>",
            (Wildcard("p", "place"), Wildcard("p_r", "place")),
            (_arity("p", minimum=2), _arity("p_r", exact=1), _role("p_r", ("resource_idle",)),
             _pool_match("p", "p_r"), *_WEIGHT, _PACE),
            _build_change_correlation("tau_change_correlation", claim=True)),
    Pattern("BI_2", "multitasking: early release parks the correlation, late claim "
                    "restores the same resource",
            (Wildcard("p1", "place"), Wildcard("p2", "place")),
            (_arity("p1", minimum=2), _arity("p2", exact=1),
             _role("p1", ("correlation", "resource_busy")), _role("p2", ("resource_idle",)),
             _pool_match("p1", "p2"), *_WEIGHT, _PACE),
            _build_multitask),
    Pattern("BI_3", "skipping an activity: a silent twin of <t> on the same pre/post-set",
            (_T,), (_labeled("t"), *_WEIGHT), _build_shadow_silent("tau_skip")),
    Pattern("BI_5", "overtaking: swap two objects' queue positions; a permit place "
                    "prevents endless cycling",
            (Wildcard("p_q1", "place"), Wildcard("p_q2", "place")),
            (_role("p_q1", ("queue",)), _role("p_q2", ("queue",)), _queues_compatible,
             *_WEIGHT, _param("budget", "an integer >= 0", lambda v: type(v) is int and v >= 0)),
            _build_overtake),
    Pattern("BI_6", "capacity change: duplicate or park a capacity token, memorized so it "
                    "can be undone",
            (Wildcard("p_c", "place"),), (_variant, *_WEIGHT, _PACE), _build_capacity),
    Pattern("BI_7", "switching roles: move a resource to another role under a fresh alias, "
                    "memorized for the switch back",
            (Wildcard("p_r1", "place"), Wildcard("p_r2", "place")),
            (_role("p_r1", ("resource_idle",)), _role("p_r2", ("resource_idle",)),
             _distinct_types, *_WEIGHT, _PACE, _number("undo_weight")),
            _build_switch_role),
    Pattern("BI_9", "different resource memory: reroute a memorized resource to another "
                    "one from the pool",
            (Wildcard("p", "place"), Wildcard("p_r", "place")),
            (_arity("p", minimum=2), _arity("p_r", exact=1),
             _role("p_r", ("resource_idle", "regular")), _pool_match("p", "p_r"),
             *_WEIGHT, _PACE),
            _build_change_correlation("tau_reroute", claim=False)),
    Pattern("BI_10", "ignored batching: fire the batch release <t> before its completion "
                     "condition holds",
            (_T,), (_droppable, *_WEIGHT), _build_early_release),
    Pattern("BI_11", "long duration: a heavy-tailed delay occasionally replaces <t>'s "
                     "usual one",
            (_T,), (_labeled("t"), _delay("delay"),
                    _number("probability", "a number in [0, 1]", lambda v: 0 <= v <= 1)),
            _build_long_duration),
)}


def lookup(code: str) -> Pattern:
    """The catalog entry of `code`."""
    try:
        return CATALOG[code]
    except KeyError:
        raise UnknownPattern(code) from None
