"""The deviation-pattern catalog.

Each pattern is an abstract net fragment: wildcards to be matched onto an
existing net plus elements to be created next to them.  Recording-error
patterns (RI_*) model faulty logging mechanisms, behavioral patterns (BI_*)
model outliers in process execution.  All blueprints are additive: matched
elements are never modified, so the transformed net keeps every behavior of
the original.

Created element ids are templated as "<local-name>#<application-id>", which
keeps repeated applications of the same pattern disjoint.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .logio import ParseError
from .nets import Arc, Net, ObjectType, Place, ProvenanceTag, Transition, Variable
from .timing import Delay, FrequencyProbe, ReportRule, TimingOverride


class UnknownPattern(Exception):
    pass


class MissingParam(Exception):
    pass


@dataclass(frozen=True)
class Wildcard:
    name: str
    kind: str  # place | transition | place_set | object_type | label
    many: bool = False
    description: str = ""


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
        if isinstance(v, (list, tuple, set, frozenset)):
            return tuple(sorted(v)) if isinstance(v, (set, frozenset)) else tuple(v)
        return (v,)

    def to_dict(self) -> dict:
        return {
            "application_id": self.application_id,
            "code": self.code,
            "mapping": {k: (list(v) if isinstance(v, (list, tuple)) else v)
                        for k, v in self.mapping.items()},
            "params": _params_to_json(self.params),
            "competitors": list(self.competitors),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PatternApplication":
        """Read what `to_dict` writes; a missing or non-string
        `application_id` or `code` raises ParseError."""
        if type(d) is not dict:
            raise ParseError(f"a pattern application must be an object, got {d!r}")
        for key in ("application_id", "code"):
            if type(d.get(key)) is not str:
                raise ParseError(f"pattern application lacks a string {key!r}: {d!r}")
        return cls(
            application_id=d["application_id"],
            code=d["code"],
            mapping=dict(d.get("mapping", {})),
            params=_params_from_json(d.get("params", {})),
            competitors=tuple(d.get("competitors", ())),
        )


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


@dataclass(frozen=True)
class Requirement:
    """A machine-checkable restriction on the wildcard mapping."""

    name: str
    description: str
    check: callable = field(compare=False, repr=False)


@dataclass(frozen=True)
class CreatedTransitionSpec:
    local: str
    silent: bool


@dataclass
class BuiltFragment:
    """A pattern made concrete under one mapping: the elements to be
    unioned into the target net."""

    places: list[Place] = field(default_factory=list)
    transitions: list[Transition] = field(default_factory=list)
    arcs: list[Arc] = field(default_factory=list)
    object_types: list[ObjectType] = field(default_factory=list)
    initial_tokens: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    overrides: list[TimingOverride] = field(default_factory=list)
    weights: dict = field(default_factory=dict)
    probe: FrequencyProbe | None = None
    report_rules: list[ReportRule] = field(default_factory=list)


@dataclass(frozen=True)
class PatternFragment:
    code: str
    origin: str  # behavioral | recording
    description: str
    wildcards: tuple[Wildcard, ...]
    created_places: tuple[str, ...]
    created_transitions: tuple[CreatedTransitionSpec, ...]
    created_arcs: tuple[str, ...]
    timing_only: bool
    requirements: tuple[Requirement, ...]
    params: dict = field(default_factory=dict)
    builder: callable = field(default=None, compare=False, repr=False)

    def build(self, net: Net, app: PatternApplication) -> BuiltFragment:
        return self.builder(net, app, {**self.params, **app.params})


def _eid(local: str, app: PatternApplication) -> str:
    return f"{local}#{app.application_id}"


def _origin_of(code: str) -> str:
    return "behavioral" if code.startswith("BI") else "recording"


def _prov(code: str, app: PatternApplication, shadow: str | None = None) -> ProvenanceTag:
    return ProvenanceTag(origin=_origin_of(code), pattern_code=code,
                         application_id=app.application_id, shadow_of=shadow)


def _copy_arcs(net: Net, tid: str, new_tid: str) -> list[Arc]:
    arcs = []
    for a in net.inputs_of(tid):
        arcs.append(Arc(a.source, new_tid, a.inscription))
    for a in net.outputs_of(tid):
        arcs.append(Arc(new_tid, a.target, a.inscription))
    return arcs


def _recorded_vars(net: Net, t: Transition) -> tuple[str, ...]:
    if t.record_spec is not None:
        return t.record_spec
    seen: list[str] = []
    for a in list(net.inputs_of(t.id)) + list(net.outputs_of(t.id)):
        for v in a.inscription:
            if v.name not in seen:
                seen.append(v.name)
    return tuple(seen)


def _probe(code: str, app: PatternApplication, deviation, competitors=None) -> FrequencyProbe:
    comp = tuple(competitors) if competitors is not None else app.competitors
    return FrequencyProbe(app.application_id, code, tuple(deviation), comp)


def _weight(params: dict) -> tuple[tuple[float, float], ...]:
    """Piecewise weight for a deviation entry transition.

    params['weight'] applies from time 0; 'weight_until' shuts the deviation
    off for good; 'weight_period'/'weight_window' instead enable it only for
    a window at the start of each period (a duty cycle), which keeps
    always-enabled deviations from soaking up every quiet moment of a run.
    """
    w = float(params.get("weight", 0.05))
    until = params.get("weight_until")
    period = params.get("weight_period")
    if period:
        period = float(period)
        window = float(params.get("weight_window", period / 8.0))
        horizon = float(params.get("weight_horizon", until if until else 1e7))
        offset = float(params.get("weight_offset", 0.0))
        pieces: list[tuple[float, float]] = [(0.0, 0.0)] if offset > 0 else []
        t = offset
        while t < horizon:
            pieces.append((t, w))
            pieces.append((t + window, 0.0))
            t += period
        return tuple(pieces)
    if until is None:
        return ((0.0, w),)
    return ((0.0, w), (float(until), 0.0))


# repair/undo transitions keep base weight so borrowed state always drains back
_ALWAYS = ((0.0, 1.0),)


def _pace(params: dict) -> float:
    return float(params.get("pace_s", 600.0))


# ---------------------------------------------------------------------------
# requirement helpers

def _req(name, description):
    def deco(fn):
        return Requirement(name, description, fn)
    return deco


def _get_place(net: Net, app: PatternApplication, wc: str) -> Place | None:
    pid = app.mapping.get(wc)
    return net.place_map.get(pid) if isinstance(pid, str) else None


def _get_transition(net: Net, app: PatternApplication, wc: str) -> Transition | None:
    tid = app.mapping.get(wc)
    return net.transition_map.get(tid) if isinstance(tid, str) else None


def _labeled(wc: str) -> Requirement:
    @_req(f"{wc}_labeled", f"<{wc}> must be a labeled transition")
    def check(net, app, params):
        t = _get_transition(net, app, wc)
        if t is not None and t.silent:
            return f"transition {t.id!r} is silent"
        return None
    return check


def _role(wc: str, roles: tuple[str, ...]) -> Requirement:
    @_req(f"{wc}_role", f"<{wc}> must have role in {roles}")
    def check(net, app, params):
        p = _get_place(net, app, wc)
        if p is not None and p.role_hint not in roles:
            return f"place {p.id!r} has role {p.role_hint!r}, need one of {roles}"
        return None
    return check


def _arity(wc: str, minimum: int = 1, exact: int | None = None) -> Requirement:
    @_req(f"{wc}_arity", f"<{wc}> arity constraint")
    def check(net, app, params):
        p = _get_place(net, app, wc)
        if p is None:
            return None
        if exact is not None and len(p.type_tuple) != exact:
            return f"place {p.id!r} has arity {len(p.type_tuple)}, need exactly {exact}"
        if len(p.type_tuple) < minimum:
            return f"place {p.id!r} has arity {len(p.type_tuple)}, need >= {minimum}"
        return None
    return check


def _resource_component(p: Place, p_r: Place, params: dict):
    """Index of the resource-typed component of p matching p_r's type."""
    rtype = p_r.type_tuple[0]
    if "component" in params:
        idx = int(params["component"])
        if not (0 <= idx < len(p.type_tuple)) or p.type_tuple[idx] != rtype:
            return None, f"component {idx} of {p.id!r} is not of type {rtype!r}"
        return idx, None
    hits = [i for i, tn in enumerate(p.type_tuple) if tn == rtype]
    if len(hits) != 1:
        return None, (f"{p.id!r} has {len(hits)} components of type {rtype!r}; "
                      "pass params['component']")
    return hits[0], None


def _pool_match(p_wc: str, pool_wc: str) -> Requirement:
    @_req("pool_type", f"<{pool_wc}>'s type must occur once in <{p_wc}> (or be selected)")
    def check(net, app, params):
        p = _get_place(net, app, p_wc)
        pool = _get_place(net, app, pool_wc)
        if p is None or pool is None:
            return None
        if len(pool.type_tuple) != 1:
            return f"pool place {pool.id!r} must have arity 1"
        _, err = _resource_component(p, pool, params)
        return err
    return check


# ---------------------------------------------------------------------------
# blueprints

def _build_shadow_silent(code: str, local_prefix: str):
    """Shared blueprint of RI_mi^e and BI_3: a silent twin of <t> on the same
    pre- and post-set, so the activity happens without leaving an event."""

    def build(net: Net, app: PatternApplication, params: dict) -> BuiltFragment:
        t = net.transition_map[app.one("t")]
        tid = _eid(f"{local_prefix}_{t.id}", app)
        twin = Transition(tid, activity_label=None, provenance=_prov(code, app, shadow=t.id))
        return BuiltFragment(
            transitions=[twin],
            arcs=_copy_arcs(net, t.id, tid),
            weights={tid: _weight(params)},
            probe=_probe(code, app, [tid], app.competitors or (t.id,)),
            report_rules=[ReportRule(tid, responsible=None, affected=())],
        )

    return build


def _build_wrong_label(code: str):
    """RI_in^e / RI_in^a: a labeled duplicate of <t> carrying the wrong
    activity name <t_prime>."""

    def build(net: Net, app: PatternApplication, params: dict) -> BuiltFragment:
        t = net.transition_map[app.one("t")]
        label = app.one("t_prime")
        tid = _eid(f"{t.id}_as_{label.replace(' ', '_')}", app)
        dup = Transition(tid, activity_label=label, provenance=_prov(code, app, shadow=t.id),
                         record_spec=t.record_spec)
        return BuiltFragment(
            transitions=[dup],
            arcs=_copy_arcs(net, t.id, tid),
            weights={tid: _weight(params)},
            probe=_probe(code, app, [tid], app.competitors or (t.id,)),
            report_rules=[ReportRule(tid, responsible=None, affected=())],
        )

    return build


def _bypass_sides(net: Net, t: Transition, bypass: tuple[str, ...]):
    """Input/output arcs of t whose inscriptions consist solely of bypassed
    variables; the remaining arcs are kept by the missing-object twin."""
    bset = set(bypass)
    ins = [a for a in net.inputs_of(t.id) if {v.name for v in a.inscription} <= bset]
    outs = [a for a in net.outputs_of(t.id) if {v.name for v in a.inscription} <= bset]
    return ins, outs


def _build_missing_object(net: Net, app: PatternApplication, params: dict) -> BuiltFragment:
    t = net.transition_map[app.one("t")]
    bypass = tuple(params["vars"]) if "vars" in params else _default_bypass_vars(net, t, app.many("O"))
    ins, outs = _bypass_sides(net, t, bypass)
    bset = set(bypass)

    miss_id = _eid(f"{t.id}_missing_{'_'.join(app.many('O'))}", app)
    recorded = tuple(v for v in _recorded_vars(net, t) if v not in bset)
    miss = Transition(miss_id, activity_label=t.activity_label,
                      provenance=_prov("RI_mi^o", app, shadow=t.id), record_spec=recorded)
    arcs = []
    for a in net.inputs_of(t.id):
        if a not in ins:
            arcs.append(Arc(a.source, miss_id, a.inscription))
    for a in net.outputs_of(t.id):
        if a not in outs:
            arcs.append(Arc(miss_id, a.target, a.inscription))

    # bypass place p' holds the unrecorded objects while the twin fires
    order = [v for a in ins for v in a.inscription]
    ptypes = tuple(v.object_type for v in order)
    byp_pid = _eid(f"p_bypass_{t.id}", app)
    byp = Place(byp_pid, ptypes, role_hint="other")
    pre_id = _eid(f"tau_pre_{t.id}", app)
    post_id = _eid(f"tau_post_{t.id}", app)
    pre = Transition(pre_id, provenance=_prov("RI_mi^o", app, shadow=t.id))
    post = Transition(post_id, provenance=_prov("RI_mi^o", app, shadow=t.id))
    for a in ins:
        arcs.append(Arc(a.source, pre_id, a.inscription))
    arcs.append(Arc(pre_id, byp_pid, tuple(order)))
    arcs.append(Arc(byp_pid, post_id, tuple(order)))
    for a in outs:
        arcs.append(Arc(post_id, a.target, a.inscription))

    w = _weight(params)
    return BuiltFragment(
        places=[byp],
        transitions=[miss, pre, post],
        arcs=arcs,
        weights={miss_id: w, pre_id: w, post_id: _ALWAYS},
        # the bypass window has a duration, which also paces the pre/post cycle
        overrides=[TimingOverride("delay", (pre_id,), app.application_id, "RI_mi^o",
                                  delay=Delay.constant(_pace(params)))],
        probe=_probe("RI_mi^o", app, [miss_id], app.competitors or (t.id,)),
        report_rules=[
            ReportRule(miss_id, responsible=(), affected=None),
            ReportRule(pre_id, responsible=None, affected=()),
            ReportRule(post_id, responsible=None, affected=()),
        ],
    )


def _default_bypass_vars(net: Net, t: Transition, otypes: tuple[str, ...]) -> tuple[str, ...]:
    hits = []
    for a in net.inputs_of(t.id):
        if all(v.object_type in otypes for v in a.inscription):
            for v in a.inscription:
                if v.name not in hits:
                    hits.append(v.name)
    return tuple(hits)


def _build_wrong_object(net: Net, app: PatternApplication, params: dict) -> BuiltFragment:
    t = net.transition_map[app.one("t")]
    pool = net.place_map[app.one("p_w")]
    var = params.get("var") or _unique_var_of_type(net, t, pool.type_tuple[0])
    tid = _eid(f"{t.id}_wrong_{var}", app)
    wrong = "wrong_" + var
    recorded = tuple(wrong if v == var else v for v in _recorded_vars(net, t))
    dup = Transition(tid, activity_label=t.activity_label,
                     provenance=_prov("RI_in^o", app, shadow=t.id), record_spec=recorded)
    arcs = _copy_arcs(net, t.id, tid)
    loop = (Variable(wrong, pool.type_tuple[0]),)
    arcs.append(Arc(pool.id, tid, loop))
    arcs.append(Arc(tid, pool.id, loop))
    return BuiltFragment(
        transitions=[dup],
        arcs=arcs,
        weights={tid: _weight(params)},
        probe=_probe("RI_in^o", app, [tid], app.competitors or (t.id,)),
        report_rules=[ReportRule(tid, responsible=(var, wrong), affected=None)],
    )


def _unique_var_of_type(net: Net, t: Transition, type_name: str) -> str:
    hits = sorted({v.name for a in net.inputs_of(t.id) for v in a.inscription
                   if v.object_type == type_name})
    if len(hits) != 1:
        raise MissingParam(
            f"RI_in^o on {t.id!r}: {len(hits)} candidate variables of type "
            f"{type_name!r}; pass params['var']")
    return hits[0]


def _build_batch_log(net: Net, app: PatternApplication, params: dict) -> BuiltFragment:
    t1 = net.transition_map[app.one("t1")]
    t2 = net.transition_map[app.one("t2")]
    d1 = params.get("batch_delay", Delay.constant(1800.0))
    d2 = Delay.constant(float(params.get("t2_delay_s", 0.0)))
    id1 = _eid(f"{t1.id}_batch_log", app)
    id2 = _eid(f"{t2.id}_batch_log", app)
    dup1 = Transition(id1, activity_label=t1.activity_label,
                      provenance=_prov("RI_in^p", app, shadow=t1.id), record_spec=t1.record_spec)
    dup2 = Transition(id2, activity_label=t2.activity_label,
                      provenance=_prov("RI_in^p", app, shadow=t2.id), record_spec=t2.record_spec)

    # tokens of a batch-logged run travel through twins of the places shared
    # by <t1> and <t2>, so the pair only ever processes its own batches
    shared = ({a.target for a in net.outputs_of(t1.id)}
              & {a.source for a in net.inputs_of(t2.id)})
    twin = {pid: _eid(f"p_{pid}_batch_log", app) for pid in sorted(shared)}
    places = [Place(twin[pid], net.place_map[pid].type_tuple, role_hint="other")
              for pid in sorted(shared)]
    arcs = []
    for a in net.inputs_of(t1.id):
        arcs.append(Arc(a.source, id1, a.inscription))
    for a in net.outputs_of(t1.id):
        arcs.append(Arc(id1, twin.get(a.target, a.target), a.inscription))
    for a in net.inputs_of(t2.id):
        arcs.append(Arc(twin.get(a.source, a.source), id2, a.inscription))
    for a in net.outputs_of(t2.id):
        arcs.append(Arc(id2, a.target, a.inscription))

    w = _weight(params)
    return BuiltFragment(
        places=places,
        transitions=[dup1, dup2],
        arcs=arcs,
        weights={id1: w, id2: _ALWAYS},
        overrides=[
            TimingOverride("delay", (id1,), app.application_id, "RI_in^p", delay=d1),
            TimingOverride("delay", (id2,), app.application_id, "RI_in^p", delay=d2),
        ],
        probe=_probe("RI_in^p", app, [id1], app.competitors or (t1.id,)),
        report_rules=[ReportRule(id1, responsible=None, affected=()),
                      ReportRule(id2, responsible=None, affected=())],
    )


def _build_coarse_timestamps(net: Net, app: PatternApplication, params: dict) -> BuiltFragment:
    window = float(params.get("window_s", 3600.0))
    return BuiltFragment(
        overrides=[TimingOverride("coarsen", app.many("T"), app.application_id,
                                  "RI_mi^p", window_s=window)],
        probe=_probe("RI_mi^p", app, []),
    )


def _build_change_correlation(code: str, local: str, claim: bool):
    """BI_1 / BI_9: a silent transition swapping the resource component of a
    correlation token for another one from <p_r>.

    claim=True (BI_1): the correlation holds the resource, so the new one is
    taken out of the idle pool and the old one is released into it.
    claim=False (BI_9): the correlation merely remembers a resource that is
    still idle; the new resource is side-looped and the old reference is
    dropped, leaving pool availability untouched.
    """

    def build(net: Net, app: PatternApplication, params: dict) -> BuiltFragment:
        p = net.place_map[app.one("p")]
        pool = net.place_map[app.one("p_r")]
        idx, err = _resource_component(p, pool, params)
        if err:
            raise MissingParam(err)
        tid = _eid(f"{local}_{p.id}", app)
        tau = Transition(tid, provenance=_prov(code, app))
        invars = tuple(Variable(f"v{i}", tn) for i, tn in enumerate(p.type_tuple))
        outvars = tuple(Variable("w", p.type_tuple[idx]) if i == idx else v
                        for i, v in enumerate(invars))
        w = (Variable("w", pool.type_tuple[0]),)
        arcs = [Arc(p.id, tid, invars), Arc(pool.id, tid, w), Arc(tid, p.id, outvars)]
        if claim:
            arcs.append(Arc(tid, pool.id, (Variable(f"v{idx}", pool.type_tuple[0]),)))
        else:
            arcs.append(Arc(tid, pool.id, w))
        others = tuple(f"v{i}" for i in range(len(p.type_tuple)) if i != idx)
        return BuiltFragment(
            transitions=[tau],
            arcs=arcs,
            weights={tid: _weight(params)},
            # handing the work over takes a moment; also paces repeated swaps
            overrides=[TimingOverride("delay", (tid,), app.application_id, code,
                                      delay=Delay.constant(_pace(params)))],
            probe=_probe(code, app, [tid]),
            report_rules=[ReportRule(tid, responsible=others, affected=(f"v{idx}", "w"))],
        )

    return build


def _build_multitask(net: Net, app: PatternApplication, params: dict) -> BuiltFragment:
    p1 = net.place_map[app.one("p1")]
    p2 = net.place_map[app.one("p2")]
    idx, err = _resource_component(p1, p2, params)
    if err:
        raise MissingParam(err)
    mem_id = _eid(f"p_interrupted_{p1.id}", app)
    rel_id = _eid(f"tau_early_release_{p1.id}", app)
    clm_id = _eid(f"tau_late_claim_{p1.id}", app)
    mem = Place(mem_id, p1.type_tuple, role_hint="other")
    rel = Transition(rel_id, provenance=_prov("BI_2", app))
    clm = Transition(clm_id, provenance=_prov("BI_2", app))
    invars = tuple(Variable(f"v{i}", tn) for i, tn in enumerate(p1.type_tuple))
    res = (Variable(f"v{idx}", p2.type_tuple[0]),)
    arcs = [
        Arc(p1.id, rel_id, invars),
        Arc(rel_id, mem_id, invars),
        Arc(rel_id, p2.id, res),
        Arc(mem_id, clm_id, invars),
        Arc(p2.id, clm_id, res),  # same variable: the exact resource is reclaimed
        Arc(clm_id, p1.id, invars),
    ]
    others = tuple(f"v{i}" for i in range(len(p1.type_tuple)) if i != idx)
    return BuiltFragment(
        places=[mem],
        transitions=[rel, clm],
        arcs=arcs,
        weights={rel_id: _weight(params), clm_id: _ALWAYS},
        overrides=[TimingOverride("delay", (rel_id,), app.application_id, "BI_2",
                                  delay=Delay.constant(_pace(params)))],
        probe=_probe("BI_2", app, [rel_id]),
        report_rules=[ReportRule(rel_id, responsible=(f"v{idx}",), affected=others),
                      ReportRule(clm_id, responsible=(), affected=())],
    )


def _build_overtake(net: Net, app: PatternApplication, params: dict) -> BuiltFragment:
    q1 = net.place_map[app.one("p_q1")]
    q2 = net.place_map[app.one("p_q2")]
    budget = int(params.get("budget", 1))
    ot_name = ObjectType(f"overtake_permit#{app.application_id}", prefix="permit")
    guard_id = _eid(f"p_{q1.id}_overtake", app)
    tid = _eid(f"tau_overtake_{q1.id}_{q2.id}", app)
    guard = Place(guard_id, (ot_name.name,), role_hint="other")
    tau = Transition(tid, provenance=_prov("BI_5", app))
    a1 = (Variable("a1", q1.type_tuple[0]), Variable("s1", q1.type_tuple[1]))
    a2 = (Variable("a2", q2.type_tuple[0]), Variable("s2", q2.type_tuple[1]))
    swapped1 = (Variable("a2", q1.type_tuple[0]), Variable("s1", q1.type_tuple[1]))
    swapped2 = (Variable("a1", q2.type_tuple[0]), Variable("s2", q2.type_tuple[1]))
    g = (Variable("g", ot_name.name),)
    arcs = [
        Arc(q1.id, tid, a1),
        Arc(q2.id, tid, a2),
        Arc(guard_id, tid, g),  # finite permits prevent a continuous swap cycle
        Arc(tid, q1.id, swapped1),
        Arc(tid, q2.id, swapped2),
    ]
    tokens = [(guard_id, (f"permit_{app.application_id}_{i + 1}",)) for i in range(budget)]
    return BuiltFragment(
        places=[guard],
        transitions=[tau],
        arcs=arcs,
        object_types=[ot_name],
        initial_tokens=tokens,
        weights={tid: _weight(params)},
        probe=_probe("BI_5", app, [tid]),
        report_rules=[ReportRule(tid, responsible=("a2",), affected=("a1",))],
    )


def _build_capacity(net: Net, app: PatternApplication, params: dict) -> BuiltFragment:
    pc = net.place_map[app.one("p_c")]
    variant = params.get("variant", "both")
    pace = Delay.constant(_pace(params))
    w = _weight(params)
    invars = tuple(Variable(f"v{i}", tn) for i, tn in enumerate(pc.type_tuple))
    built = BuiltFragment()

    if variant in ("decrease", "both"):
        mem_id = _eid(f"p_{pc.id}_dec", app)
        dec_id = _eid(f"tau_{pc.id}_dec", app)
        undo_id = _eid(f"tau_{pc.id}_dec_undo", app)
        built.places.append(Place(mem_id, pc.type_tuple, role_hint="other"))
        built.transitions += [Transition(dec_id, provenance=_prov("BI_6", app)),
                              Transition(undo_id, provenance=_prov("BI_6", app))]
        built.arcs += [Arc(pc.id, dec_id, invars), Arc(dec_id, mem_id, invars),
                       Arc(mem_id, undo_id, invars), Arc(undo_id, pc.id, invars)]
        built.weights.update({dec_id: w, undo_id: _ALWAYS})
        built.overrides.append(TimingOverride("delay", (dec_id,), app.application_id,
                                              "BI_6", delay=pace))
        built.report_rules += [ReportRule(dec_id, responsible=None, affected=()),
                               ReportRule(undo_id, responsible=(), affected=())]

    if variant in ("increase", "both"):
        mem_id = _eid(f"p_{pc.id}_inc", app)
        inc_id = _eid(f"tau_{pc.id}_inc", app)
        undo_id = _eid(f"tau_{pc.id}_inc_undo", app)
        built.places.append(Place(mem_id, pc.type_tuple, role_hint="other"))
        built.transitions += [Transition(inc_id, provenance=_prov("BI_6", app)),
                              Transition(undo_id, provenance=_prov("BI_6", app))]
        # the duplicate and its memory token carry the same identifiers
        built.arcs += [Arc(pc.id, inc_id, invars),
                       Arc(inc_id, pc.id, invars), Arc(inc_id, pc.id, invars),
                       Arc(inc_id, mem_id, invars),
                       Arc(pc.id, undo_id, invars), Arc(pc.id, undo_id, invars),
                       Arc(mem_id, undo_id, invars),
                       Arc(undo_id, pc.id, invars)]
        built.weights.update({inc_id: w, undo_id: _ALWAYS})
        built.overrides.append(TimingOverride("delay", (inc_id,), app.application_id,
                                              "BI_6", delay=pace))
        built.report_rules += [ReportRule(inc_id, responsible=None, affected=()),
                               ReportRule(undo_id, responsible=(), affected=())]

    built.probe = _probe("BI_6", app, [t.id for t in built.transitions if "undo" not in t.id])
    return built


def _build_switch_role(net: Net, app: PatternApplication, params: dict) -> BuiltFragment:
    r1 = net.place_map[app.one("p_r1")]
    r2 = net.place_map[app.one("p_r2")]
    t1, t2 = r1.type_tuple[0], r2.type_tuple[0]
    mem_id = _eid(f"p_{r1.id}_{r2.id}", app)
    sw_id = _eid(f"tau_switch_{r1.id}_{r2.id}", app)
    back_id = _eid(f"tau_switch_back_{r1.id}_{r2.id}", app)
    mem = Place(mem_id, (t1, t2), role_hint="other")
    sw = Transition(sw_id, provenance=_prov("BI_7", app))
    back = Transition(back_id, provenance=_prov("BI_7", app))
    r = Variable("r", t1)
    # nu-variable: the borrowed role gets a fresh identifier referencing r
    alias_fresh = Variable("alias", t2, fresh=True)
    alias = Variable("alias", t2)
    arcs = [
        Arc(r1.id, sw_id, (r,)),
        Arc(sw_id, r2.id, (alias_fresh,)),
        Arc(sw_id, mem_id, (r, alias_fresh)),
        Arc(mem_id, back_id, (r, alias)),
        Arc(r2.id, back_id, (alias,)),
        Arc(back_id, r1.id, (r,)),
    ]
    return BuiltFragment(
        places=[mem],
        transitions=[sw, back],
        arcs=arcs,
        weights={sw_id: _weight(params),
                 back_id: ((0.0, float(params.get("undo_weight", 1.0))),)},
        overrides=[TimingOverride("delay", (sw_id,), app.application_id, "BI_7",
                                  delay=Delay.constant(_pace(params)))],
        probe=_probe("BI_7", app, [sw_id]),
        report_rules=[ReportRule(sw_id, responsible=None, affected=()),
                      ReportRule(back_id, responsible=(), affected=())],
    )


def _build_early_release(net: Net, app: PatternApplication, params: dict) -> BuiltFragment:
    t = net.transition_map[app.one("t")]
    if "drop" not in params:
        raise MissingParam("BI_10 requires params['drop']: input-arc indices to omit")
    drop = set(int(i) for i in params["drop"])
    ins = net.inputs_of(t.id)
    kept_in = [a for i, a in enumerate(ins) if i not in drop]
    bound = {v.name for a in kept_in for v in a.inscription}
    tid = _eid(f"tau_early_{t.id}", app)
    tau = Transition(tid, provenance=_prov("BI_10", app, shadow=t.id))
    arcs = [Arc(a.source, tid, a.inscription) for a in kept_in]
    for a in net.outputs_of(t.id):
        if all(v.fresh or v.name in bound for v in a.inscription):
            arcs.append(Arc(tid, a.target, a.inscription))
    return BuiltFragment(
        transitions=[tau],
        arcs=arcs,
        weights={tid: _weight(params)},
        probe=_probe("BI_10", app, [tid], app.competitors or (t.id,)),
        report_rules=[ReportRule(tid, responsible=None, affected=())],
    )


def _build_long_duration(net: Net, app: PatternApplication, params: dict) -> BuiltFragment:
    prob = float(params.get("probability", 0.05 / 1.05))
    delay = params.get("delay", Delay.exponential(1.0 / 7200.0))
    return BuiltFragment(
        overrides=[TimingOverride("slow_branch", (app.one("t"),), app.application_id,
                                  "BI_11", probability=prob, delay=delay)],
        probe=_probe("BI_11", app, []),
    )


# ---------------------------------------------------------------------------
# per-code requirement sets

def _requirements_for(code: str) -> tuple[Requirement, ...]:
    if code in ("RI_mi^e", "BI_3"):
        return (_labeled("t"),)

    if code in ("RI_in^e", "RI_in^a"):
        @_req("t_prime_differs", "<t_prime> must be a non-empty label different from <t>'s")
        def differs(net, app, params):
            t = _get_transition(net, app, "t")
            label = app.mapping.get("t_prime")
            if not isinstance(label, str) or not label:
                return "<t_prime> must be a non-empty label value"
            if t is not None and t.activity_label == label:
                return f"<t_prime> {label!r} equals the label of {t.id!r}"
            return None
        return (_labeled("t"), differs)

    if code == "RI_mi^o":
        @_req("bypass_pure", "bypassed objects must ride pure side arcs of <t>")
        def pure(net, app, params):
            t = _get_transition(net, app, "t")
            if t is None:
                return None
            otypes = app.many("O")
            vtypes = net.variable_types(t.id)
            byp = tuple(params["vars"]) if "vars" in params else _default_bypass_vars(net, t, otypes)
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
        return (_labeled("t"), pure)

    if code == "RI_in^o":
        @_req("var_of_pool_type", "the misrecorded variable must have <p_w>'s type")
        def var_ok(net, app, params):
            t = _get_transition(net, app, "t")
            pool = _get_place(net, app, "p_w")
            if t is None or pool is None:
                return None
            if len(pool.type_tuple) != 1:
                return f"pool place {pool.id!r} must have arity 1"
            try:
                var = params.get("var") or _unique_var_of_type(net, t, pool.type_tuple[0])
            except MissingParam as e:
                return str(e)
            vtypes = net.variable_types(t.id)
            if vtypes.get(var) != pool.type_tuple[0]:
                return f"variable {var!r} of {t.id!r} is not of type {pool.type_tuple[0]!r}"
            return None
        return (_labeled("t"), _role("p_w", ("resource_idle",)), var_ok)

    if code == "RI_in^p":
        @_req("connected", "post(<t1>) must intersect pre(<t2>)")
        def connected(net, app, params):
            t1 = _get_transition(net, app, "t1")
            t2 = _get_transition(net, app, "t2")
            if t1 is None or t2 is None:
                return None
            post1 = {a.target for a in net.outputs_of(t1.id)}
            pre2 = {a.source for a in net.inputs_of(t2.id)}
            if not post1 & pre2:
                return f"{t1.id!r} and {t2.id!r} share no batching place"
            return None
        return (_labeled("t1"), _labeled("t2"), connected)

    if code == "RI_mi^p":
        @_req("targets_labeled", "every coarsened transition must be labeled")
        def labeled_all(net, app, params):
            for tid in app.many("T"):
                t = net.transition_map.get(tid)
                if t is not None and t.silent:
                    return f"transition {tid!r} is silent, coarsening has no effect"
            return None
        return (labeled_all,)

    if code in ("BI_1", "BI_9"):
        roles = ("resource_idle",) if code == "BI_1" else ("resource_idle", "regular")
        return (_arity("p", minimum=2), _arity("p_r", exact=1),
                _role("p_r", roles), _pool_match("p", "p_r"))

    if code == "BI_2":
        return (_arity("p1", minimum=2), _arity("p2", exact=1),
                _role("p1", ("correlation", "resource_busy")),
                _role("p2", ("resource_idle",)), _pool_match("p1", "p2"))

    if code == "BI_5":
        @_req("queues_compatible", "<p_q1> and <p_q2> must be distinct queue places of equal type")
        def queues(net, app, params):
            q1 = _get_place(net, app, "p_q1")
            q2 = _get_place(net, app, "p_q2")
            if q1 is None or q2 is None:
                return None
            if q1.id == q2.id:
                return "<p_q1> and <p_q2> must differ"
            if q1.type_tuple != q2.type_tuple:
                return f"type tuples differ: {q1.type_tuple} vs {q2.type_tuple}"
            if len(q1.type_tuple) != 2:
                return "queue places must pair an object with a queue-position object"
            return None
        return (_role("p_q1", ("queue",)), _role("p_q2", ("queue",)), queues)

    if code == "BI_6":
        @_req("variant", "variant must be increase, decrease or both")
        def variant_ok(net, app, params):
            if params.get("variant", "both") not in ("increase", "decrease", "both"):
                return f"unknown variant {params.get('variant')!r}"
            return None
        return (variant_ok,)

    if code == "BI_7":
        @_req("distinct_types", "role places must hold resources of different types")
        def distinct(net, app, params):
            r1 = _get_place(net, app, "p_r1")
            r2 = _get_place(net, app, "p_r2")
            if r1 is None or r2 is None:
                return None
            if len(r1.type_tuple) != 1 or len(r2.type_tuple) != 1:
                return "role places must have arity 1"
            if r1.type_tuple[0] == r2.type_tuple[0]:
                return "roles must be of different object types"
            return None
        return (_role("p_r1", ("resource_idle",)), _role("p_r2", ("resource_idle",)), distinct)

    if code == "BI_10":
        @_req("droppable", "dropped arcs must leave a well-formed early release")
        def droppable(net, app, params):
            t = _get_transition(net, app, "t")
            if t is None:
                return None
            if "drop" not in params:
                return "params['drop'] (input-arc indices) is required"
            ins = net.inputs_of(t.id)
            drop = set(int(i) for i in params["drop"])
            if not drop or not drop <= set(range(len(ins))):
                return f"drop indices {sorted(drop)} out of range for {len(ins)} input arcs"
            if len(drop) >= len(ins):
                return "at least one input arc must remain"
            return None
        return (droppable,)

    if code == "BI_11":
        return (_labeled("t"),)

    raise UnknownPattern(code)


# ---------------------------------------------------------------------------
# catalog

_WC = Wildcard

_CATALOG: dict[str, dict] = {
    "RI_mi^e": dict(
        description="missing event: a silent twin of <t> executes the activity unrecorded",
        wildcards=(_WC("t", "transition"),),
        places=(), transitions=(CreatedTransitionSpec("tau_missing_<t>", True),),
        arcs=("copies of <t>'s pre- and post-set arcs",),
        builder=_build_shadow_silent("RI_mi^e", "tau_missing"),
    ),
    "RI_in^e": dict(
        description="incorrect event: a duplicate of <t> records the wrong activity <t_prime>",
        wildcards=(_WC("t", "transition"), _WC("t_prime", "label")),
        places=(), transitions=(CreatedTransitionSpec("<t>_as_<t_prime>", False),),
        arcs=("copies of <t>'s pre- and post-set arcs",),
        builder=_build_wrong_label("RI_in^e"),
    ),
    "RI_in^a": dict(
        description="incorrect activity name: duplicate of <t> labeled <t_prime>",
        wildcards=(_WC("t", "transition"), _WC("t_prime", "label")),
        places=(), transitions=(CreatedTransitionSpec("<t>_as_<t_prime>", False),),
        arcs=("copies of <t>'s pre- and post-set arcs",),
        builder=_build_wrong_label("RI_in^a"),
    ),
    "RI_mi^o": dict(
        description="missing object(s): twin of <t> unaware of <O>, which bypasses through a created place",
        wildcards=(_WC("t", "transition"), _WC("O", "object_type", many=True)),
        places=("p_bypass_<t>",),
        transitions=(CreatedTransitionSpec("<t>_missing_<O>", False),
                     CreatedTransitionSpec("tau_pre_<t>", True),
                     CreatedTransitionSpec("tau_post_<t>", True)),
        arcs=("kept arcs of <t>", "pre(<t>)|O -> bypass", "bypass -> post(<t>)|O"),
        builder=_build_missing_object,
    ),
    "RI_in^o": dict(
        description="incorrect object: duplicate of <t> records an idle object from <p_w> instead of the real one",
        wildcards=(_WC("t", "transition"), _WC("p_w", "place")),
        places=(), transitions=(CreatedTransitionSpec("<t>_wrong_<var>", False),),
        arcs=("copies of <t>'s arcs", "side loop on <p_w>"),
        builder=_build_wrong_object,
    ),
    "RI_in^p": dict(
        description="incorrect position: batch-logged pair; <t1> absorbs the batch duration, <t2> takes none",
        wildcards=(_WC("t1", "transition"), _WC("t2", "transition")),
        places=("p_<shared>_batch_log",),
        transitions=(CreatedTransitionSpec("<t1>_batch_log", False),
                     CreatedTransitionSpec("<t2>_batch_log", False)),
        arcs=("copies of <t1>'s and <t2>'s arcs, shared places twinned",),
        builder=_build_batch_log,
    ),
    "RI_mi^p": dict(
        description="missing position: emitted timestamps of <T> coarsen to a window",
        wildcards=(_WC("T", "transition", many=True),),
        places=(), transitions=(), arcs=(),
        timing_only=True,
        builder=_build_coarse_timestamps,
    ),
    "BI_1": dict(
        description="changing correlation: a silent transition hands the work over to a new resource from <p_r>",
        wildcards=(_WC("p", "place"), _WC("p_r", "place")),
        places=(), transitions=(CreatedTransitionSpec("tau_change_correlation_<p>", True),),
        arcs=("<p> <-> tau", "<p_r> <-> tau"),
        builder=_build_change_correlation("BI_1", "tau_change_correlation", claim=True),
    ),
    "BI_2": dict(
        description="multitasking: early release parks the correlation, late claim restores the same resource",
        wildcards=(_WC("p1", "place"), _WC("p2", "place")),
        places=("p_interrupted_<p1>",),
        transitions=(CreatedTransitionSpec("tau_early_release_<p1>", True),
                     CreatedTransitionSpec("tau_late_claim_<p1>", True)),
        arcs=("<p1> -> release -> memory+<p2>", "memory+<p2> -> claim -> <p1>"),
        builder=_build_multitask,
    ),
    "BI_3": dict(
        description="skipping an activity: a silent twin of <t> on the same pre/post-set",
        wildcards=(_WC("t", "transition"),),
        places=(), transitions=(CreatedTransitionSpec("tau_skip_<t>", True),),
        arcs=("copies of <t>'s pre- and post-set arcs",),
        builder=_build_shadow_silent("BI_3", "tau_skip"),
    ),
    "BI_5": dict(
        description="overtaking: swap two objects' queue positions; a permit place prevents endless cycling",
        wildcards=(_WC("p_q1", "place"), _WC("p_q2", "place")),
        places=("p_<p_q1>_overtake",),
        transitions=(CreatedTransitionSpec("tau_overtake_<p_q1>_<p_q2>", True),),
        arcs=("<p_q1>,<p_q2>,guard -> tau -> swapped tokens",),
        builder=_build_overtake,
    ),
    "BI_6": dict(
        description="capacity change: duplicate or park a capacity token, memorized so it can be undone",
        wildcards=(_WC("p_c", "place"),),
        places=("p_<p_c>_dec", "p_<p_c>_inc"),
        transitions=(CreatedTransitionSpec("tau_<p_c>_dec", True),
                     CreatedTransitionSpec("tau_<p_c>_dec_undo", True),
                     CreatedTransitionSpec("tau_<p_c>_inc", True),
                     CreatedTransitionSpec("tau_<p_c>_inc_undo", True)),
        arcs=("capacity token in/out of memory places",),
        builder=_build_capacity,
    ),
    "BI_7": dict(
        description="switching roles: move a resource to another role under a fresh alias, memorized for the switch back",
        wildcards=(_WC("p_r1", "place"), _WC("p_r2", "place")),
        places=("p_<p_r1>_<p_r2>",),
        transitions=(CreatedTransitionSpec("tau_switch_<p_r1>_<p_r2>", True),
                     CreatedTransitionSpec("tau_switch_back_<p_r1>_<p_r2>", True)),
        arcs=("<p_r1> -> switch -> <p_r2>+memory (nu)", "memory+<p_r2> -> back -> <p_r1>"),
        builder=_build_switch_role,
    ),
    "BI_9": dict(
        description="different resource memory: reroute a memorized resource to another one from the pool",
        wildcards=(_WC("p", "place"), _WC("p_r", "place")),
        places=(), transitions=(CreatedTransitionSpec("tau_reroute_<p>", True),),
        arcs=("<p> <-> tau", "<p_r> <-> tau"),
        builder=_build_change_correlation("BI_9", "tau_reroute", claim=False),
    ),
    "BI_10": dict(
        description="ignored batching: fire the batch release <t> before its completion condition holds",
        wildcards=(_WC("t", "transition"),),
        places=(), transitions=(CreatedTransitionSpec("tau_early_<t>", True),),
        arcs=("<t>'s arcs minus the dropped completion arcs",),
        builder=_build_early_release,
    ),
    "BI_11": dict(
        description="long duration: a heavy-tailed delay occasionally replaces <t>'s usual one",
        wildcards=(_WC("t", "transition"),),
        places=(), transitions=(), arcs=(),
        timing_only=True,
        builder=_build_long_duration,
    ),
}

CODES = ("RI_mi^e", "RI_in^e", "RI_in^a", "RI_mi^o", "RI_in^o", "RI_in^p", "RI_mi^p",
         "BI_1", "BI_2", "BI_3", "BI_5", "BI_6", "BI_7", "BI_9", "BI_10", "BI_11")


def catalog() -> list[tuple[str, str, dict]]:
    """(code, description, wildcard signature) for every implemented pattern."""
    out = []
    for code in CODES:
        entry = _CATALOG[code]
        sig = {w.name: (w.kind + (" set" if w.many else "")) for w in entry["wildcards"]}
        out.append((code, entry["description"], sig))
    return out


def wildcard_requirements(code: str) -> list[Requirement]:
    if code not in _CATALOG:
        raise UnknownPattern(code)
    return list(_requirements_for(code))


def instantiate(code: str, params: dict | None = None) -> PatternFragment:
    if code not in _CATALOG:
        raise UnknownPattern(code)
    entry = _CATALOG[code]
    params = dict(params or {})
    timing_only = entry.get("timing_only", False)

    places = entry["places"]
    transitions = entry["transitions"]
    if code == "BI_6":
        variant = params.get("variant", "both")
        if variant not in ("increase", "decrease", "both"):
            raise MissingParam(f"BI_6 variant must be increase/decrease/both, got {variant!r}")
        if variant != "both":
            places = tuple(p for p in places if variant[:3] in p)
            transitions = tuple(t for t in transitions if variant[:3] in t.local)
    if code == "BI_10" and "drop" not in params:
        raise MissingParam("BI_10 requires params['drop']")

    return PatternFragment(
        code=code,
        origin=_origin_of(code),
        description=entry["description"],
        wildcards=entry["wildcards"],
        created_places=places,
        created_transitions=transitions,
        created_arcs=entry["arcs"],
        timing_only=timing_only,
        requirements=tuple(_requirements_for(code)),
        params=params,
        builder=entry["builder"],
    )
