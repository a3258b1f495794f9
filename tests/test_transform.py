from dataclasses import replace

import pytest

from logforge import fixtures
from logforge.dataset import enumerate_cells
from logforge.nets import Diagnostic, Net, Place, bounded_language, validate_net
from logforge.patterns import CATALOG, PatternApplication, lookup
from logforge.serialize import net_digest, net_to_dict
from logforge.transform import (InvalidMapping, OrderViolation, apply,
                                apply_sequence, validate_mapping)

import mini_nets


def test_all_demo_mappings_validate():
    for name, net, app in mini_nets.additivity_cases():
        assert validate_mapping(net, app) == [], name


def test_role_mismatch_diagnostic():
    net = mini_nets.mini_corr()
    app = PatternApplication("x", "BI_1", {"p": "p_b", "p_r": "p_out"})
    diags = validate_mapping(net, app)
    assert any(d.code == "RoleMismatch" for d in diags)


def test_unresolved_element_diagnostic():
    net = mini_nets.mini_chain()
    app = PatternApplication("x", "BI_3", {"t": "does_not_exist"})
    diags = validate_mapping(net, app)
    assert any(d.code == "UnresolvedElement" for d in diags)


def test_injectivity_diagnostic():
    net = mini_nets.mini_roles()
    app = PatternApplication("x", "BI_7", {"p_r1": "p_ra", "p_r2": "p_ra"})
    diags = validate_mapping(net, app)
    assert any(d.code == "InjectivityViolation" for d in diags)


def test_missing_mapping_diagnostic():
    net = mini_nets.mini_chain()
    diags = validate_mapping(net, PatternApplication("x", "BI_3"))
    assert any(d.code == "MissingMapping" for d in diags)


def _element_dicts(net: Net) -> dict:
    d = net_to_dict(net)
    places = {p["id"]: p for p in d["places"]}
    transitions = {t["id"]: t for t in d["transitions"]}
    return places, transitions, d["arcs"]


def _twice_skipped():
    return apply(mini_nets.mini_chain(), PatternApplication("a", "BI_3", {"t": "alpha"}))


FAILED, ROLE = "RequirementFailed", "RoleMismatch"
# (net, code, mapping, params, every diagnostic the application gets)
REFUSED_MAPPINGS = {
    "arity-minimum": (mini_nets.mini_corr, "BI_9", {"p": "p_out", "p_r": "p_r"}, {}, [
        (FAILED, "p_arity", "BI_9: place 'p_out' has arity 1, need >= 2"),
        (FAILED, "pool_type",
         "BI_9: 'p_out' has 0 components of type 'res'; pass params['component']")]),
    "arity-exact": (fixtures.package_delivery_net, "BI_9",
                    {"p": "p_carrying", "p_r": "p_at_depot"}, {}, [
        (FAILED, "p_r_arity", "BI_9: place 'p_at_depot' has arity 2, need exactly 1")]),
    "pool-component-type": (mini_nets.mini_corr, "BI_1", {"p": "p_b", "p_r": "p_r"},
                            {"component": 0}, [
        (FAILED, "pool_type", "BI_1: component 0 of 'p_b' is not of type 'res'")]),
    "pool-component-out-of-range": (mini_nets.mini_corr, "BI_1", {"p": "p_b", "p_r": "p_r"},
                                    {"component": 2}, [
        (FAILED, "pool_type", "BI_1: component 2 is out of range for 'p_b', which has arity 2")]),
    "pool-component-text": (mini_nets.mini_corr, "BI_1", {"p": "p_b", "p_r": "p_r"},
                            {"component": "1"}, [
        (FAILED, "pool_type", "BI_1: params['component'] must be an integer index, got '1'")]),
    "pool-components": (fixtures.package_delivery_net, "BI_9",
                        {"p": "p_carrying", "p_r": "p_van_pool"}, {}, [
        (FAILED, "pool_type",
         "BI_9: 'p_carrying' has 0 components of type 'van'; pass params['component']")]),
    "empty-t-prime": (mini_nets.mini_chain, "RI_in^e", {"t": "alpha", "t_prime": ""}, {}, [
        (FAILED, "t_prime_differs", "RI_in^e: <t_prime> must be a non-empty label value")]),
    "same-t-prime": (mini_nets.mini_chain, "RI_in^a", {"t": "alpha", "t_prime": "alpha"}, {}, [
        (FAILED, "t_prime_differs", "RI_in^a: <t_prime> 'alpha' equals the label of 'alpha'")]),
    "text-vars": (mini_nets.mini_chain, "RI_mi^o", {"t": "alpha", "O": ["item"]}, {"vars": "x"}, [
        (FAILED, "bypass_pure",
         "RI_mi^o: params['vars'] must be a list of variable names, got 'x'")]),
    "no-bypassable-vars": (mini_nets.mini_chain, "RI_mi^o", {"t": "alpha", "O": ["item"]},
                           {"vars": []}, [
        (FAILED, "bypass_pure",
         "RI_mi^o: no bypassable variables of types ('item',) on 'alpha'")]),
    "bypassed-var-types": (mini_nets.mini_sideloop, "RI_mi^o", {"t": "scan", "O": ["gadget"]},
                           {"vars": ["x"]}, [
        (FAILED, "bypass_pure",
         "RI_mi^o: types of bypassed vars ('x',) do not equal <O>=('gadget',)")]),
    "mixed-arc": (mini_nets.mini_corr, "RI_mi^o", {"t": "finish", "O": ["res"]},
                  {"vars": ["rr"]}, [
        (FAILED, "bypass_pure",
         "RI_mi^o: arc p_b->finish mixes bypassed and kept variables ['rr', 'x']")]),
    "no-pure-output": (mini_nets.mini_batch, "RI_mi^o", {"t": "release", "O": ["pos"]},
                       {"vars": ["u2"]}, [
        (FAILED, "t_labeled", "RI_mi^o: transition 'release' is silent"),
        (FAILED, "bypass_pure",
         "RI_mi^o: bypassed variables need at least one pure input and output arc")]),
    "pool-arity": (mini_nets.mini_corr, "RI_in^o", {"t": "finish", "p_w": "p_b"}, {}, [
        (ROLE, "p_w_role",
         "RI_in^o: place 'p_b' has role 'correlation', need one of ('resource_idle',)"),
        (FAILED, "var_of_pool_type", "RI_in^o: pool place 'p_b' must have arity 1")]),
    "no-candidate-var": (mini_nets.mini_roles, "RI_in^o", {"t": "use", "p_w": "p_rb"}, {}, [
        (FAILED, "var_of_pool_type",
         "RI_in^o: 0 candidate variables of type 'helper' on 'use'; pass params['var']")]),
    "var-of-another-type": (mini_nets.mini_pool, "RI_in^o", {"t": "work", "p_w": "p_r"},
                            {"var": "x"}, [
        (FAILED, "var_of_pool_type", "RI_in^o: variable 'x' of 'work' is not of type 'res'")]),
    "unconnected": (mini_nets.mini_chain, "RI_in^p", {"t1": "beta", "t2": "alpha"}, {}, [
        (FAILED, "connected", "RI_in^p: 'beta' and 'alpha' share no batching place")]),
    "silent-target": (mini_nets.mini_batch, "RI_mi^p", {"T": ["release"]}, {}, [
        (FAILED, "targets_labeled",
         "RI_mi^p: transition 'release' is silent, coarsening has no effect")]),
    "queue-types-differ": (mini_nets.mini_queue, "BI_5", {"p_q1": "p_qa", "p_q2": "p_out"}, {}, [
        (ROLE, "p_q2_role", "BI_5: place 'p_out' has role 'regular', need one of ('queue',)"),
        (FAILED, "queues_compatible", "BI_5: type tuples differ: ('item', 'pos') vs ('item',)")]),
    "queue-not-a-pair": (mini_nets.mini_chain, "BI_5", {"p_q1": "p0", "p_q2": "p1"}, {}, [
        (ROLE, "p_q1_role", "BI_5: place 'p0' has role 'regular', need one of ('queue',)"),
        (ROLE, "p_q2_role", "BI_5: place 'p1' has role 'regular', need one of ('queue',)"),
        (FAILED, "queues_compatible",
         "BI_5: queue places must pair an object with a queue-position object")]),
    # one place for both queues never reaches the requirements
    "one-queue-twice": (mini_nets.mini_queue, "BI_5", {"p_q1": "p_qa", "p_q2": "p_qa"}, {}, [
        ("InjectivityViolation", "p_qa", "<p_q1> and <p_q2> both map to 'p_qa'")]),
    "role-arity": (mini_nets.mini_corr, "BI_7", {"p_r1": "p_b", "p_r2": "p_r"}, {}, [
        (ROLE, "p_r1_role",
         "BI_7: place 'p_b' has role 'correlation', need one of ('resource_idle',)"),
        (FAILED, "distinct_types", "BI_7: role places must have arity 1")]),
    "same-role-type": (mini_nets.mini_chain, "BI_7", {"p_r1": "p0", "p_r2": "p1"}, {}, [
        (ROLE, "p_r1_role", "BI_7: place 'p0' has role 'regular', need one of ('resource_idle',)"),
        (ROLE, "p_r2_role", "BI_7: place 'p1' has role 'regular', need one of ('resource_idle',)"),
        (FAILED, "distinct_types", "BI_7: roles must be of different object types")]),
    # with a period, weight_horizon used to win and weight_until went unread
    "duty-cycle-with-two-ends": (mini_nets.mini_chain, "BI_3", {"t": "alpha"},
                                 {"weight": 0.5, "weight_period": 100.0, "weight_until": 150.0,
                                  "weight_horizon": 400.0}, [
        (FAILED, "weight_end", "BI_3: weight_until and weight_horizon both end the duty cycle "
                               "of weight_period; give one")]),
    # 0 used to read as no end: 10^5 periods running to 10^7 s
    "duty-cycle-ending-at-zero": (mini_nets.mini_chain, "BI_3", {"t": "alpha"},
                                  {"weight": 0.5, "weight_period": 100.0,
                                   "weight_until": 0.0}, [
        (FAILED, "weight_until_param",
         "BI_3: params['weight_until'] must be a finite number > 0, got 0.0")]),
    # pieces (0, w) and (0, 0) sorted the shut-off first: w held for good
    "weight-ending-at-zero": (mini_nets.mini_chain, "BI_3", {"t": "alpha"},
                              {"weight": 0.5, "weight_until": 0}, [
        (FAILED, "weight_until_param",
         "BI_3: params['weight_until'] must be a finite number > 0, got 0")]),
    # a cycle with no period left no weight pieces, read as weight 1.0
    "duty-cycle-ending-at-its-start": (mini_nets.mini_chain, "BI_3", {"t": "alpha"},
                                       {"weight": 0.05, "weight_period": 100.0,
                                        "weight_horizon": 0.0}, [
        (FAILED, "weight_periods",
         "BI_3: the duty cycle ends at 0.0, not after its weight_offset 0.0, so it has no "
         "period")]),
    # its one piece was (0, 0): the deviation could never fire
    "duty-cycle-ending-before-its-offset": (mini_nets.mini_chain, "BI_3", {"t": "alpha"},
                                            {"weight": 0.05, "weight_period": 100.0,
                                             "weight_offset": 500.0, "weight_horizon": 400.0}, [
        (FAILED, "weight_periods",
         "BI_3: the duty cycle ends at 400.0, not after its weight_offset 500.0, so it has no "
         "period")]),
    "duty-cycle-until-before-its-offset": (mini_nets.mini_chain, "BI_3", {"t": "alpha"},
                                           {"weight": 0.05, "weight_period": 100.0,
                                            "weight_offset": 500.0, "weight_until": 500.0}, [
        (FAILED, "weight_periods",
         "BI_3: the duty cycle ends at 500.0, not after its weight_offset 500.0, so it has no "
         "period")]),
    "drop-out-of-range": (mini_nets.mini_batch, "BI_10", {"t": "release"}, {"drop": [5]}, [
        (FAILED, "droppable", "BI_10: drop indices [5] out of range for 2 input arcs")]),
    "drop-every-arc": (mini_nets.mini_batch, "BI_10", {"t": "release"}, {"drop": [0, 1]}, [
        (FAILED, "droppable", "BI_10: at least one input arc must remain")]),
    "empty-set": (mini_nets.mini_chain, "RI_mi^p", {"T": []}, {}, [
        ("MissingMapping", "T", "wildcard <T> mapped to an empty set")]),
    "number-value": (mini_nets.mini_chain, "BI_3", {"t": 5}, {}, [
        ("KindMismatch", "t", "<t> must map to string values, got 5")]),
    "unknown-place": (mini_nets.mini_cap, "BI_6", {"p_c": "p_nowhere"}, {}, [
        ("UnresolvedElement", "p_nowhere", "<p_c> maps to unknown place 'p_nowhere'")]),
    "unknown-object-type": (mini_nets.mini_chain, "RI_mi^o", {"t": "alpha", "O": ["gizmo"]}, {}, [
        ("UnresolvedElement", "gizmo", "<O> maps to unknown object type 'gizmo'")]),
    # a key no pattern reads is refused before the requirements run
    "unread-keys": (fixtures.package_delivery_net, "BI_3", {"t": "ring", "tt": "dock"},
                    {"wieght": 9.0}, [
        ("UnknownKey", "a", "BI_3 reads no mapping key(s) ['tt'] and no params key(s) "
                            "['wieght']")]),
    "unread-param": (mini_nets.mini_chain, "BI_11", {"t": "alpha"}, {"weight": 1.0}, [
        ("UnknownKey", "a", "BI_11 reads no params key(s) ['weight']")]),
    "unread-key-and-unmapped": (mini_nets.mini_chain, "RI_in^p", {"t1": "alpha", "t": "beta"},
                                {}, [
        ("UnknownKey", "a", "RI_in^p reads no mapping key(s) ['t']"),
        ("MissingMapping", "t2", "wildcard <t2> of RI_in^p is unmapped")]),
    # the built model fails `validate_net`
    "created-id-exists": (_twice_skipped, "BI_3", {"t": "alpha"}, {}, [
        ("DuplicateId", "tau_skip_alpha#a", "BI_3: transition id 'tau_skip_alpha#a' not unique")]),
}


def test_a_misspelt_competitor_is_refused():
    app = PatternApplication("a", "BI_3", {"t": "ring"}, {"weight": 0.05}, competitors=("rnig",))
    with pytest.raises(InvalidMapping) as caught:
        apply_sequence(fixtures.package_delivery_net(), [app])
    assert caught.value.index == 0
    assert caught.value.diagnostics == [Diagnostic(
        "UnresolvedElement", "annotations.probes",
        "BI_3: probes names 'rnig', which is no transition of the net")]


def _drop_application_ids(built):
    built.transitions = [replace(t, provenance=replace(t.provenance, application_id=None))
                         for t in built.transitions]


def _place_named_alpha(built):
    built.places.append(Place("alpha", ("item",)))


@pytest.mark.parametrize("edit,expected", [
    (_drop_application_ids, ("ProvenanceInvalid", "tau_skip_alpha#a",
                             "BI_3: origin 'behavioral' needs an application_id")),
    (_place_named_alpha, ("DuplicateId", "alpha",
                          "BI_3: id 'alpha' used for both a place and a transition")),
], ids=["created-tag-without-id", "created-place-named-as-a-transition"])
def test_a_built_model_that_validate_net_refuses_is_refused(monkeypatch, edit, expected):
    pattern = CATALOG["BI_3"]

    def build(net, app):
        built = pattern.build(net, app)
        edit(built)
        return built
    monkeypatch.setitem(CATALOG, "BI_3", replace(pattern, build=build))
    with pytest.raises(InvalidMapping) as caught:
        apply(mini_nets.mini_chain(), PatternApplication("a", "BI_3", {"t": "alpha"}))
    assert caught.value.diagnostics == [Diagnostic(*expected)]


class _ReadKeys(dict):
    """Params that note every key read by `get`, `[]` or `in`."""

    def __init__(self, params, read: set):
        super().__init__(params)
        self.read = read

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


def _rows():
    """(net, applications) for every row of every fixture grid, then every
    additivity case."""
    for name in fixtures.FIXTURES:
        net, grid = fixtures.fixture(name)
        rows = {(c.b_index, c.r_index): c.behavioral + c.recording
                for c in enumerate_cells(grid)}
        yield from ((net, apps) for apps in rows.values())
    yield from ((net, (app,)) for _, net, app in mini_nets.additivity_cases())


def test_every_parameter_a_pattern_reads_is_declared():
    built = {}
    for net, apps in _rows():
        reads = [set() for _ in apps]
        apply_sequence(net, [replace(app, params=_ReadKeys(app.params, read))
                             for app, read in zip(apps, reads)])
        for app, read in zip(apps, reads):
            assert read <= lookup(app.code).params, (app, read - lookup(app.code).params)
            built.setdefault(app.code, set()).add(app.application_id)
    assert sorted(built) == sorted(CATALOG)
    assert sum(map(len, built.values())) == 42


def test_an_application_without_an_id_is_refused():
    # its created elements would carry provenance that `validate_net` refuses
    with pytest.raises(InvalidMapping) as caught:
        apply(mini_nets.mini_chain(), PatternApplication("", "BI_3", {"t": "alpha"}))
    assert caught.value.diagnostics == [Diagnostic(
        "ProvenanceInvalid", "BI_3", "an application of BI_3 needs a non-empty application_id")]


@pytest.mark.parametrize("net,code,mapping,params,expected", REFUSED_MAPPINGS.values(),
                         ids=REFUSED_MAPPINGS)
def test_a_refused_mapping_gives_exactly_its_diagnostics(net, code, mapping, params, expected):
    with pytest.raises(InvalidMapping) as caught:
        apply(net(), PatternApplication("a", code, mapping, params))
    assert caught.value.diagnostics == [Diagnostic(*d) for d in expected]


@pytest.mark.parametrize("name", fixtures.FIXTURES)
def test_every_grid_application_gives_only_keys_its_pattern_reads(name):
    _, grid = fixtures.fixture(name)
    apps = [app for sets in (grid.behavioral_sets, grid.recording_sets)
            for apps in sets for app in apps]
    assert apps
    for app in apps:
        pattern = lookup(app.code)
        assert app.mapping.keys() <= {wc.name for wc in pattern.wildcards}, app
        assert app.params.keys() <= pattern.params, app


def test_missing_object_without_vars_builds_what_its_derived_vars_build():
    net = mini_nets.mini_sideloop()
    mapping = {"t": "scan", "O": ["gadget"]}
    derived = apply(net, PatternApplication("a", "RI_mi^o", mapping))
    given = apply(net, PatternApplication("a", "RI_mi^o", mapping, {"vars": ["d"]}))
    assert len(derived.transitions) > len(net.transitions)
    assert net_to_dict(derived) == net_to_dict(given)


def test_apply_is_a_strict_element_superset():
    for name, net, app in mini_nets.additivity_cases():
        out = apply(net, app)
        p0, t0, a0 = _element_dicts(net)
        p1, t1, a1 = _element_dicts(out)
        for pid, pd in p0.items():
            assert p1[pid] == pd
        for tid, td in t0.items():
            assert t1[tid] == td
        for arc in a0:
            assert arc in a1
        for pid, token, n in net.initial_marking.items():
            assert out.initial_marking.count(pid, token) >= n
        assert validate_net(out) == [], name


def test_overtake_adds_one_place_and_one_transition():
    net = mini_nets.mini_queue()
    app = PatternApplication("o1", "BI_5", {"p_q1": "p_qa", "p_q2": "p_qb"})
    out = apply(net, app)
    assert len(out.places) == len(net.places) + 1
    assert len(out.transitions) == len(net.transitions) + 1


def test_timing_only_apply_is_structurally_identity():
    net = mini_nets.mini_chain()
    app = PatternApplication("t1", "RI_mi^p", {"T": ["alpha", "beta"]},
                             {"window_s": 3600.0})
    out = apply(net, app)
    assert len(out.places) == len(net.places)
    assert len(out.transitions) == len(net.transitions)
    assert len(out.arcs) == len(net.arcs)
    assert len(out.annotations.overrides) == len(net.annotations.overrides) + 1


def test_apply_rejects_invalid_mapping():
    net = mini_nets.mini_chain()
    with pytest.raises(InvalidMapping):
        apply(net, PatternApplication("x", "BI_3", {"t": "missing"}))


def test_apply_sequence_empty():
    net = mini_nets.mini_chain()
    out, ledger = apply_sequence(net, [])
    assert net_digest(out) == net_digest(net)
    assert ledger.entries == ()


def test_apply_sequence_order_violation():
    net = mini_nets.mini_chain()
    apps = [
        PatternApplication("r", "RI_mi^e", {"t": "alpha"}),
        PatternApplication("b", "BI_3", {"t": "alpha"}),
    ]
    with pytest.raises(OrderViolation):
        apply_sequence(net, apps)
    out, ledger = apply_sequence(net, list(reversed(apps)))
    assert [e.origin for e in ledger.entries] == ["behavioral", "recording"]


def test_apply_sequence_rejects_duplicate_application_ids():
    net = mini_nets.mini_chain()
    apps = [PatternApplication("same", "BI_3", {"t": "alpha"}),
            PatternApplication("same", "BI_3", {"t": "beta"})]
    with pytest.raises(InvalidMapping):
        apply_sequence(net, apps)


def test_ledger_attributes_every_created_element_exactly_once():
    net, grid = fixtures.fixture("package_delivery")
    apps = [s[0] for s in grid.behavioral_sets if s] + \
           [s[0] for s in grid.recording_sets if s]
    out, ledger = apply_sequence(net, apps)
    base_p = {p.id for p in net.places}
    base_t = {t.id for t in net.transitions}
    owners = {}
    for entry in ledger.entries:
        for eid in entry.created_places + entry.created_transitions:
            assert eid not in owners
            owners[eid] = entry.application_id
    for p in out.places:
        assert p.id in base_p or p.id in owners
    for t in out.transitions:
        assert t.id in base_t or t.id in owners
    assert len(out.arcs) == len(net.arcs) + sum(e.created_arc_count for e in ledger.entries)


def test_same_code_twice_creates_disjoint_elements():
    net = mini_nets.mini_chain()
    apps = [PatternApplication("one", "BI_3", {"t": "alpha"}),
            PatternApplication("two", "BI_3", {"t": "alpha"})]
    out, ledger = apply_sequence(net, apps)
    sets = [set(e.created_transitions) | set(e.created_places) for e in ledger.entries]
    assert sets[0] and sets[1] and not sets[0] & sets[1]


DISJOINT_PAIRS = [
    ("bi5", "bi7"),
    ("bi3", "bi9"),
    ("bi2", "bi10"),
]


def test_commutativity_on_disjoint_mappings():
    net, grid = fixtures.fixture("package_delivery")
    by_id = {s[0].application_id: s[0] for s in grid.behavioral_sets if s}
    for a, b in DISJOINT_PAIRS:
        one, _ = apply_sequence(net, [by_id[a], by_id[b]])
        two, _ = apply_sequence(net, [by_id[b], by_id[a]])
        assert mini_nets.net_canonical_digest(one) == mini_nets.net_canonical_digest(two)
        assert net_digest(one) != ""


def test_additivity_smoke():
    name, net, app = mini_nets.additivity_cases()[0]
    out = apply(net, app)
    assert bounded_language(net, 3) <= bounded_language(out, 3)


def test_patterns_stack_onto_created_elements():
    # a recording pattern may match an element another application created
    net = mini_nets.mini_chain()
    first = PatternApplication("dup", "RI_in^e", {"t": "alpha", "t_prime": "gamma"})
    second_target = "alpha_as_gamma#dup"
    second = PatternApplication("miss", "RI_mi^e", {"t": second_target})
    out, ledger = apply_sequence(net, [first, second])
    assert any(t.id == f"tau_missing_{second_target}#miss" for t in out.transitions)
    assert validate_net(out) == []
