import pytest

from logforge import fixtures
from logforge.dataset import enumerate_cells
from logforge.patterns import CATALOG, PatternApplication, UnknownPattern, Wildcard, lookup
from logforge.transform import apply, apply_sequence, validate_mapping

import mini_nets

EXPECTED_CODES = {"RI_mi^e", "RI_in^e", "RI_in^a", "RI_mi^o", "RI_in^o", "RI_in^p",
                  "RI_mi^p", "BI_1", "BI_2", "BI_3", "BI_5", "BI_6", "BI_7",
                  "BI_9", "BI_10", "BI_11"}

# patterns that only annotate timing and create no element
TIMING_ONLY = {"RI_mi^p", "BI_11"}


def _build(net, app):
    return lookup(app.code).build(net, app)


def test_catalog_has_the_sixteen_patterns():
    assert len(CATALOG) == 16
    assert set(CATALOG) == EXPECTED_CODES
    assert all(code == p.code and p.description for code, p in CATALOG.items())
    assert {p.origin for p in CATALOG.values() if p.code.startswith("RI")} == {"recording"}
    assert {p.origin for p in CATALOG.values() if p.code.startswith("BI")} == {"behavioral"}


def test_catalog_signatures():
    assert CATALOG["RI_mi^o"].wildcards == (Wildcard("t", "transition"),
                                            Wildcard("O", "object_type", many=True))
    assert CATALOG["BI_5"].wildcards == (Wildcard("p_q1", "place"), Wildcard("p_q2", "place"))
    assert CATALOG["RI_mi^p"].wildcards == (Wildcard("T", "transition", many=True),)


def test_bi6_covers_both_variants():
    net = mini_nets.mini_cap()
    both = _build(net, PatternApplication("c", "BI_6", {"p_c": "p_cap"}))
    ids = [t.id for t in both.transitions]
    assert any("inc" in x for x in ids) and any("dec" in x for x in ids)
    only_dec = _build(net, PatternApplication("c", "BI_6", {"p_c": "p_cap"},
                                              {"variant": "decrease"}))
    assert only_dec.transitions and all("dec" in t.id for t in only_dec.transitions)
    assert only_dec.places and all("dec" in p.id for p in only_dec.places)


def test_created_element_counts():
    bi5 = _build(mini_nets.mini_queue(),
                 PatternApplication("o", "BI_5", {"p_q1": "p_qa", "p_q2": "p_qb"}))
    assert len(bi5.transitions) == 1 and len(bi5.places) == 1
    ria = _build(mini_nets.mini_chain(),
                 PatternApplication("a", "RI_in^a", {"t": "alpha", "t_prime": "gamma"}))
    assert len(ria.transitions) == 1 and len(ria.places) == 0
    rimp = _build(mini_nets.mini_chain(), PatternApplication(
        "p", "RI_mi^p", {"T": ["alpha", "beta"]}, {"window_s": 3600.0}))
    assert rimp.transitions == [] and rimp.places == [] and rimp.arcs == []


def test_timing_only_patterns_build_exactly_one_override():
    for name, net, app in mini_nets.additivity_cases():
        built = _build(net, app)
        if app.code in TIMING_ONLY:
            assert not built.places and not built.transitions
            assert len(built.overrides) == 1
        else:
            assert built.places or built.transitions


def test_created_elements_carry_matching_provenance():
    for name, net, app in mini_nets.additivity_cases():
        built = _build(net, app)
        expected = "behavioral" if app.code.startswith("BI") else "recording"
        for t in built.transitions:
            assert t.provenance.origin == expected
            assert t.provenance.pattern_code == app.code
            assert t.provenance.application_id == app.application_id


def test_distinct_application_ids_yield_disjoint_created_ids():
    net = mini_nets.mini_chain()
    a = _build(net, PatternApplication("one", "BI_3", {"t": "alpha"}))
    b = _build(net, PatternApplication("two", "BI_3", {"t": "alpha"}))
    ids_a = {t.id for t in a.transitions} | {p.id for p in a.places}
    ids_b = {t.id for t in b.transitions} | {p.id for p in b.places}
    assert ids_a and not ids_a & ids_b


BAD_PARAMS = [
    ("BI_10", mini_nets.mini_batch, {"t": "release"}, {}),  # the dropped-arc indices
    ("BI_10", mini_nets.mini_batch, {"t": "release"}, {"drop": ["a"]}),
    ("BI_10", mini_nets.mini_batch, {"t": "release"}, {"drop": 1}),
    ("BI_6", mini_nets.mini_cap, {"p_c": "p_cap"}, {"variant": "sideways"}),
    ("BI_1", mini_nets.mini_corr, {"p": "p_b", "p_r": "p_r"}, {"component": "1"}),
    ("RI_in^o", mini_nets.mini_pool, {"t": "work", "p_w": "p_r"}, {"var": "x"}),
]


def test_unknown_pattern_and_required_params():
    with pytest.raises(UnknownPattern):
        lookup("BI_99")
    with pytest.raises(UnknownPattern):
        validate_mapping(mini_nets.mini_chain(), PatternApplication("x", "nope", {"t": "alpha"}))
    for code, make_net, mapping, params in BAD_PARAMS:
        diags = validate_mapping(make_net(), PatternApplication("x", code, mapping, params))
        assert [d.code for d in diags] == ["RequirementFailed"], (code, params)


def test_requirements_are_named_and_checkable():
    for pattern in CATALOG.values():
        assert all(r.name and r.description and callable(r.check) for r in pattern.requirements)


def test_missing_object_record_spec_excludes_bypassed():
    net = mini_nets.mini_sideloop()
    app = PatternApplication("m1", "RI_mi^o", {"t": "scan", "O": ["gadget"]},
                             {"vars": ["d"]})
    built = _build(net, app)
    twin = next(t for t in built.transitions if t.activity_label == "scan")
    assert twin.record_spec == ("x",)
    silents = [t for t in built.transitions if t.silent]
    assert len(silents) == 2 and len(built.places) == 1


def test_wrong_object_records_the_substitute():
    net = mini_nets.mini_pool()
    app = PatternApplication("w1", "RI_in^o", {"t": "work", "p_w": "p_r"}, {"var": "rr"})
    built = _build(net, app)
    dup = built.transitions[0]
    assert dup.record_spec == ("x", "wrong_rr")
    loops = [a for a in built.arcs if a.source == "p_r" or a.target == "p_r"]
    assert len(loops) == 4  # copied side loop of `work` plus the wrong-object loop


def test_switch_role_uses_a_fresh_alias():
    net = mini_nets.mini_roles()
    app = PatternApplication("s1", "BI_7", {"p_r1": "p_ra", "p_r2": "p_rb"})
    built = _build(net, app)
    fresh_vars = [v for a in built.arcs for v in a.inscription if v.fresh]
    assert fresh_vars and all(v.object_type == "helper" for v in fresh_vars)


def test_batch_log_reroutes_through_twin_places():
    net = mini_nets.mini_chain()
    app = PatternApplication("b1", "RI_in^p", {"t1": "alpha", "t2": "beta"})
    built = _build(net, app)
    assert len(built.places) == 1  # the twin of the shared place p1
    twin = built.places[0].id
    assert any(a.target == twin for a in built.arcs)
    assert any(a.source == twin for a in built.arcs)
    # the base place p1 is not written by the duplicate of t1
    dup1 = next(t.id for t in built.transitions if "alpha" in t.id)
    assert not any(a.source == dup1 and a.target == "p1" for a in built.arcs)


def test_multitasking_reclaims_the_exact_resource():
    from logforge.nets import Marking, enabled_bindings, fire
    net = mini_nets.mini_corr()
    app = PatternApplication("mt", "BI_2", {"p1": "p_b", "p2": "p_r"})
    out = apply(net, app)
    gen = out.id_generator()
    release = next(f for f in enabled_bindings(out, out.initial_marking)
                   if f[0].startswith("tau_early_release"))
    marking, _ = fire(out, out.initial_marking, release, gen)
    marking.add("p_r", ("r_1",))  # released resource comes back idle
    marking.add("p_r", ("r_3",))  # a different idle resource is also around
    claims = [f for f in enabled_bindings(out, marking)
              if f[0].startswith("tau_late_claim")]
    assert claims and all(dict(b.values)["v1"] == "r_1" for _, b in claims)


def _sequences():
    """(net, applications) of every additivity case and every fixture grid row."""
    for name, net, app in mini_nets.additivity_cases():
        yield net, [app]
    for name in fixtures.FIXTURES:
        net, grid = fixtures.fixture(name)
        for b, r in dict.fromkeys((c.b_index, c.r_index) for c in enumerate_cells(grid)):
            yield net, [*grid.behavioral_sets[b], *grid.recording_sets[r]]


def test_each_created_transition_has_one_weight_and_one_report_rule():
    for net, apps in _sequences():
        _, ledger = apply_sequence(net, apps)
        for app, entry in zip(apps, ledger.entries, strict=True):
            built = _build(net, app)
            ids = [t.id for t in built.transitions]
            assert list(built.weights) == ids
            assert [r.transition for r in built.report_rules] == ids
            assert entry.created_transitions == tuple(ids)
            assert entry.created_places == tuple(p.id for p in built.places)
            assert entry.created_arc_count == len(built.arcs)
            net = apply(net, app)
