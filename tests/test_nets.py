import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from logforge import fixtures
from logforge.nets import (Arc, Binding, Diagnostic, ExplosionGuard, Marking, Net,
                           NotEnabled, ObjectType, Place, ProvenanceTag, Transition,
                           Variable, bounded_language, enabled_bindings, fire, replay,
                           validate_net)

import mini_nets


def v(name, otype, fresh=False):
    return Variable(name, otype, fresh)


def pick_net():
    """The hand fragment: a package queue place, an idle-employee place, and
    a pick transition correlating the two."""
    types = (ObjectType("package", "pkg"), ObjectType("employee", "we"))
    places = (Place("p1", ("package",)), Place("p_we", ("employee",), "resource_idle"),
              Place("p2", ("package", "employee"), "correlation"))
    pick = Transition("pick", "pick")
    arcs = (Arc("p1", "pick", (v("x", "package"),)),
            Arc("p_we", "pick", (v("w", "employee"),)),
            Arc("pick", "p2", (v("x", "package"), v("w", "employee"))))
    initial = Marking.of({"p1": [["pkg_1"]], "p_we": [["we_1"], ["we_2"]]})
    return Net(types, places, (pick,), arcs, initial)


def two_courier_net():
    types = (ObjectType("courier", "c"),)
    places = (Place("p_c", ("courier",)), Place("p_out", ("courier", "courier")))
    t = Transition("pair", "pair")
    arcs = (Arc("p_c", "pair", (v("a", "courier"),)),
            Arc("p_c", "pair", (v("b", "courier"),)),
            Arc("pair", "p_out", (v("a", "courier"), v("b", "courier"))))
    return Net(types, places, (t,), arcs, Marking.of({"p_c": [["c_1"]]}))


# -- validation ---------------------------------------------------------------

def test_fixture_nets_validate():
    for name in fixtures.FIXTURES:
        net, _ = fixtures.fixture(name)
        assert validate_net(net) == []


def test_arity_mismatch_diagnostic():
    net = pick_net()
    bad = Net(net.object_types, net.places, net.transitions,
              net.arcs + (Arc("pick", "p1", (v("x", "package"), v("w", "employee"))),),
              net.initial_marking)
    codes = {d.code for d in validate_net(bad)}
    assert "ArityMismatch" in codes


def test_duplicate_transition_id_diagnostic():
    net = pick_net()
    bad = Net(net.object_types, net.places,
              net.transitions + (Transition("pick", "pick again"),),
              net.arcs, net.initial_marking)
    assert any(d.code == "DuplicateId" and d.element == "pick" for d in validate_net(bad))


def test_fresh_on_input_and_unbound_output_diagnostics():
    types = (ObjectType("item", "i"),)
    places = (Place("p0", ("item",)), Place("p1", ("item",)))
    t = Transition("t")
    arcs = (Arc("p0", "t", (v("x", "item", fresh=True),)),
            Arc("t", "p1", (v("y", "item"),)))
    diags = validate_net(Net(types, places, (t,), arcs, Marking()))
    codes = {d.code for d in diags}
    assert "FreshOnInput" in codes and "UnboundOutputVariable" in codes


def test_variable_type_conflict_is_rejected():
    # the same name at two types across one transition's arcs is forbidden
    types = (ObjectType("a", "a"), ObjectType("b", "b"))
    places = (Place("pa", ("a",)), Place("pb", ("b",)), Place("po", ("a",)))
    t = Transition("t")
    arcs = (Arc("pa", "t", (v("x", "a"),)), Arc("pb", "t", (v("x", "b"),)),
            Arc("t", "po", (v("x", "a"),)))
    codes = {d.code for d in validate_net(Net(types, places, (t,), arcs, Marking()))}
    assert "VariableTypeConflict" in codes


def test_marking_diagnostics():
    net = pick_net()
    bad = Net(net.object_types, net.places, net.transitions, net.arcs,
              Marking.of({"nowhere": [["z"]], "p2": [["pkg_1"]]}))
    codes = {d.code for d in validate_net(bad)}
    assert "MarkingUnknownPlace" in codes and "MarkingArityMismatch" in codes


def test_separator_in_an_identifier_is_rejected():
    # log.csv joins an event's objects with ';', so 'i;1' would read back as two objects
    net = pick_net()
    bad = Net((ObjectType("package", "pkg;x"), net.object_types[1]), net.places,
              net.transitions, net.arcs,
              Marking.of({"p1": [["pkg;1"]], "p_we": [["we_1"], [7]]}))
    diags = [(d.code, d.element) for d in validate_net(bad)]
    assert sorted(diags) == [("BadIdentifier", "p1"), ("BadIdentifier", "p_we"),
                             ("BadIdentifier", "package")]


def _pick(**changes):
    """An edit of pick_net that changes its one transition, `pick`."""
    return lambda n: replace(n, transitions=(replace(n.transitions[0], **changes),))


PICK_DEFECTS = {
    "duplicate-type": (
        lambda n: replace(n, object_types=n.object_types + (ObjectType("package", "pk"),)),
        "DuplicateTypeName", "package", "object type 'package' declared twice"),
    "duplicate-place": (
        lambda n: replace(n, places=n.places + (Place("p1", ("package",)),)),
        "DuplicateId", "p1", "place id 'p1' not unique"),
    "duplicate-transition": (
        lambda n: replace(n, transitions=n.transitions + (Transition("pick", "again"),)),
        "DuplicateId", "pick", "transition id 'pick' not unique"),
    "place-named-as-transition": (
        lambda n: replace(n, places=n.places + (Place("pick", ("package", "employee")),)),
        "DuplicateId", "pick", "id 'pick' used for both a place and a transition"),
    "empty-type-tuple": (
        lambda n: replace(n, places=n.places + (Place("p_e", ()),)),
        "EmptyTypeTuple", "p_e", "place 'p_e' has empty type tuple"),
    "unknown-type": (
        lambda n: replace(n, places=n.places + (Place("p_u", ("parcel",)),)),
        "UnknownType", "p_u", "place 'p_u' uses undeclared type 'parcel'"),
    "bad-role-hint": (
        lambda n: replace(n, places=(replace(n.places[0], role_hint="idle"),) + n.places[1:]),
        "BadRoleHint", "p1", "place 'p1' role 'idle' not in ('regular', 'resource_idle', "
        "'resource_busy', 'queue', 'correlation', 'other')"),
    # a model's provenance tags are held to the trace reader's rule
    "unknown-origin": (_pick(provenance=ProvenanceTag("invented", application_id="a1")),
                       "ProvenanceInvalid", "pick",
                       "origin 'invented' is not one of ['base', 'behavioral', 'recording']"),
    "base-with-pattern-code": (_pick(provenance=ProvenanceTag("base", "BI_3")),
                               "ProvenanceInvalid", "pick",
                               "origin 'base' disagrees with pattern 'BI_3', whose origin is "
                               "'behavioral'"),
    "base-with-unknown-pattern-code": (_pick(provenance=ProvenanceTag("base", "BOGUS")),
                                       "ProvenanceInvalid", "pick",
                                       "pattern_code 'BOGUS' names no catalog pattern"),
    "created-without-application": (_pick(provenance=ProvenanceTag("behavioral", "BI_3")),
                                    "ProvenanceInvalid", "pick",
                                    "origin 'behavioral' needs an application_id"),
    "unknown-pattern-code": (_pick(provenance=ProvenanceTag("behavioral", "BOGUS", "a1")),
                             "ProvenanceInvalid", "pick",
                             "pattern_code 'BOGUS' names no catalog pattern"),
    "origin-unlike-pattern": (_pick(provenance=ProvenanceTag("recording", "BI_3", "a1")),
                              "ProvenanceInvalid", "pick",
                              "origin 'recording' disagrees with pattern 'BI_3', whose origin "
                              "is 'behavioral'"),
    "unknown-arc-target": (
        lambda n: replace(n, arcs=n.arcs + (Arc("pick", "p_nowhere", (v("x", "package"),)),)),
        "UnresolvedElement", "arc[3](pick->p_nowhere)", "arc target 'p_nowhere' unknown"),
    "place-to-place-arc": (
        lambda n: replace(n, arcs=n.arcs + (Arc("p1", "p2", (v("x", "package"),)),)),
        "BipartiteViolation", "arc[3](p1->p2)", "arc does not connect a place and a transition"),
    "type-mismatch": (
        lambda n: replace(n, arcs=n.arcs + (Arc("pick", "p1", (v("w", "employee"),)),)),
        "TypeMismatch", "arc[3](pick->p1)", "variable 'w':employee at a package position of 'p1'"),
    "isolated-transition": (
        lambda n: replace(n, transitions=n.transitions + (Transition("idle"),)),
        "IsolatedTransition", "idle", "transition 'idle' has no arcs"),
    "record-spec-unknown-variable": (_pick(record_spec=("x", "z")), "RecordSpecUnknownVariable",
                                     "pick", "record_spec names 'z', not a variable of 'pick'"),
    "final-marking-unknown-place": (
        lambda n: replace(n, final_marking=Marking.of({"nowhere": [["z"]]})),
        "MarkingUnknownPlace", "nowhere", "final marking marks unknown place 'nowhere'"),
}


@pytest.mark.parametrize("defect", sorted(PICK_DEFECTS))
def test_each_structural_defect_is_one_diagnostic(defect):
    edit, code, element, message = PICK_DEFECTS[defect]
    assert validate_net(pick_net()) == []
    assert validate_net(edit(pick_net())) == [Diagnostic(code, element, message)]


# -- enabled bindings -----------------------------------------------------------

def test_empty_marking_has_no_firings():
    assert enabled_bindings(pick_net(), Marking()) == []


def test_pick_has_one_binding_per_idle_employee():
    # enumerated by hand: pkg_1 with we_1, pkg_1 with we_2
    net = pick_net()
    fs = enabled_bindings(net, net.initial_marking)
    assert [(t, dict(b.values)) for t, b in fs] == [
        ("pick", {"w": "we_1", "x": "pkg_1"}),
        ("pick", {"w": "we_2", "x": "pkg_1"}),
    ]


def test_two_distinct_couriers_need_two_tokens():
    net = two_courier_net()
    assert enabled_bindings(net, net.initial_marking) == []
    m = net.initial_marking.copy()
    m.add("p_c", ("c_2",))
    got = {tuple(sorted(b.values)) for _, b in enabled_bindings(net, m)}
    assert got == {(("a", "c_1"), ("b", "c_2")), (("a", "c_2"), ("b", "c_1"))}


def test_same_variable_twice_needs_multiplicity():
    types = (ObjectType("slot", "s"),)
    places = (Place("p", ("slot",)), Place("q", ("slot",)))
    t = Transition("t")
    arcs = (Arc("p", "t", (v("u", "slot"),)), Arc("p", "t", (v("u", "slot"),)),
            Arc("t", "q", (v("u", "slot"),)))
    net = Net(types, places, (t,), arcs, Marking.of({"p": [["s_1"]]}))
    assert enabled_bindings(net, net.initial_marking) == []
    m = net.initial_marking.copy()
    m.add("p", ("s_1",))
    assert len(enabled_bindings(net, m)) == 1


def test_enabled_bindings_deterministic_order():
    net = pick_net()
    a = enabled_bindings(net, net.initial_marking)
    b = enabled_bindings(net, net.initial_marking)
    assert a == b == sorted(a, key=lambda f: (f[0], f[1].values))


# naive oracle: try every identifier assignment of the right type

def naive_enabled(net, marking):
    ids_by_type = {}
    for pid, token, _ in marking.items():
        for ident, tname in zip(token, net.place_map[pid].type_tuple):
            ids_by_type.setdefault(tname, set()).add(ident)
    out = set()
    for t in net.transitions:
        arcs = net.inputs_of(t.id)
        if not arcs:
            out.add((t.id, ()))
            continue
        vtypes = {}
        for a in arcs:
            for var in a.inscription:
                vtypes.setdefault(var.name, var.object_type)
        names = sorted(vtypes)
        pools = [sorted(ids_by_type.get(vtypes[n], ())) for n in names]
        if any(not p for p in pools):
            continue
        for combo in itertools.product(*pools):
            bound = dict(zip(names, combo))
            consumed = [(a.source, tuple(bound[x.name] for x in a.inscription)) for a in arcs]
            need = Counter(consumed)
            if all(marking.count(p, tok) >= k for (p, tok), k in need.items()):
                out.add((t.id, tuple(sorted(bound.items()))))
    return out


@st.composite
def corr_markings(draw):
    items = [f"i_{k}" for k in range(1, 4)]
    resources = [f"r_{k}" for k in range(1, 5)]
    pairs = draw(st.lists(st.tuples(st.sampled_from(items), st.sampled_from(resources)),
                          max_size=4))
    idle = draw(st.lists(st.sampled_from(resources), max_size=4))
    m = Marking()
    for i, r in pairs:
        m.add("p_b", (i, r))
    for r in idle:
        m.add("p_r", (r,))
    return m


@given(corr_markings())
@settings(max_examples=200, deadline=None)
def test_enabled_matches_naive_oracle(marking):
    net = mini_nets.mini_corr()
    got = {(t, b.values) for t, b in enabled_bindings(net, marking)}
    assert got == naive_enabled(net, marking)


@given(corr_markings())
@settings(max_examples=100, deadline=None)
def test_firing_conservation(marking):
    net = mini_nets.mini_corr()
    for firing in enabled_bindings(net, marking):
        m2, rec = fire(net, marking, firing, net.id_generator())
        expect = Counter({(p, t): n for p, t, n in marking.items()})
        for pid, tok in rec.consumed:
            expect[(pid, tok)] -= 1
        for pid, tok in rec.produced:
            expect[(pid, tok)] += 1
        got = Counter({(p, t): n for p, t, n in m2.items()})
        assert got == +expect
        assert all(n >= 0 for n in got.values())
        for pid, tok in rec.produced:
            assert len(tok) == len(net.place_map[pid].type_tuple)


# -- fire -----------------------------------------------------------------------

def test_fire_moves_pick_tokens():
    net = pick_net()
    firing = enabled_bindings(net, net.initial_marking)[0]
    m2, rec = fire(net, net.initial_marking, firing, net.id_generator())
    assert m2.count("p2", ("pkg_1", "we_1")) == 1
    assert m2.count("p1", ("pkg_1",)) == 0
    assert m2.count("p_we", ("we_2",)) == 1


def test_fire_not_enabled():
    net = pick_net()
    bad = ("pick", Binding(values=(("x", "pkg_9"), ("w", "we_1"))))
    with pytest.raises(NotEnabled):
        fire(net, net.initial_marking, bad, net.id_generator())


def test_fire_empty_preset_silent():
    types = (ObjectType("item", "i"),)
    places = (Place("p", ("item",)),)
    t = Transition("spawn")
    arcs = (Arc("spawn", "p", (v("x", "item", fresh=True),)),)
    net = Net(types, places, (t,), arcs, Marking())
    firing = enabled_bindings(net, Marking())[0]
    m2, rec = fire(net, Marking(), firing, net.id_generator())
    assert sum(n for _, _, n in m2.items()) == 1 and rec.consumed == ()


def test_fresh_identifiers_are_globally_new():
    from logforge.patterns import PatternApplication
    from logforge.transform import apply_sequence
    net = mini_nets.mini_roles()
    switched, _ = apply_sequence(net, [PatternApplication("s1", "BI_7",
                                                          {"p_r1": "p_ra", "p_r2": "p_rb"})])
    gen = switched.id_generator()
    known = set(switched.initial_marking.identifiers())
    marking = switched.initial_marking
    seen_fresh = set()
    for _ in range(3):
        firing = next(f for f in enabled_bindings(switched, marking)
                      if f[0].startswith("tau_switch_"))
        marking, rec = fire(switched, marking, firing, gen)
        fresh_ids = {ident for _, ident in rec.binding.fresh}
        assert fresh_ids and not fresh_ids & known and not fresh_ids & seen_fresh
        seen_fresh |= fresh_ids
        # undo the switch so the next round starts clean
        back = next(f for f in enabled_bindings(switched, marking)
                    if f[0].startswith("tau_switch_back"))
        marking, _ = fire(switched, marking, back, gen)


# -- replay ----------------------------------------------------------------------

def test_replay_empty_trace():
    assert replay(pick_net(), []) is True


def test_replay_rejects_out_of_order():
    net = mini_nets.mini_chain()
    alpha = ("alpha", Binding(values=(("x", "i_1"),)))
    beta = ("beta", Binding(values=(("x", "i_1"),)))
    assert replay(net, [alpha, beta]) is True
    assert replay(net, [beta, alpha]) is False


def test_replay_uses_fresh_from_trace():
    from logforge.patterns import PatternApplication
    from logforge.transform import apply_sequence
    net, _ = apply_sequence(mini_nets.mini_roles(),
                            [PatternApplication("s1", "BI_7",
                                                {"p_r1": "p_ra", "p_r2": "p_rb"})])
    gen = net.id_generator()
    firing = next(f for f in enabled_bindings(net, net.initial_marking)
                  if f[0].startswith("tau_switch_"))
    _, rec = fire(net, net.initial_marking, firing, gen)
    assert replay(net, [(rec.transition, Binding(rec.binding.values, rec.binding.fresh))])


# -- bounded language --------------------------------------------------------------

def test_bounded_language_depth_zero():
    assert bounded_language(mini_nets.mini_chain(), 0) == {()}


def test_bounded_language_two_step_chain():
    net = mini_nets.mini_chain()
    lang = bounded_language(net, 2)
    a = ("alpha", (("x", "i_1"),))
    b = ("beta", (("x", "i_1"),))
    assert lang == {(), (a,), (a, b)}


def test_bounded_language_guard():
    net = mini_nets.mini_chain()
    busy = Net(net.object_types, net.places, net.transitions, net.arcs,
               Marking.of({"p0": [["i_1"], ["i_2"], ["i_3"]]}))
    with pytest.raises(ExplosionGuard):
        bounded_language(busy, 4, cap=5)
    with pytest.raises(ValueError):
        bounded_language(net, 13)


def test_bounded_language_canonicalizes_fresh():
    from logforge.patterns import PatternApplication
    from logforge.transform import apply_sequence
    net, _ = apply_sequence(mini_nets.mini_roles(),
                            [PatternApplication("s1", "BI_7",
                                                {"p_r1": "p_ra", "p_r2": "p_rb"})])
    lang = bounded_language(net, 1)
    switch_steps = [s for seq in lang for s in seq if s[0].startswith("tau_switch_")]
    assert switch_steps and all(("alias", "~1") in s[1] for s in switch_steps)
