import pytest

from logforge import fixtures
from logforge.nets import Net, bounded_language, validate_net
from logforge.patterns import PatternApplication
from logforge.serialize import net_canonical_digest, net_digest, net_to_dict
from logforge.transform import (InvalidMapping, OrderViolation, apply,
                                apply_sequence, validate_mapping)


def test_all_demo_mappings_validate():
    for name, net, app in fixtures.additivity_cases():
        assert validate_mapping(net, app) == [], name


def test_role_mismatch_diagnostic():
    net = fixtures.mini_corr()
    app = PatternApplication("x", "BI_1", {"p": "p_b", "p_r": "p_out"})
    diags = validate_mapping(net, app)
    assert any(d.code == "RoleMismatch" for d in diags)


def test_unresolved_element_diagnostic():
    net = fixtures.mini_chain()
    app = PatternApplication("x", "BI_3", {"t": "does_not_exist"})
    diags = validate_mapping(net, app)
    assert any(d.code == "UnresolvedElement" for d in diags)


def test_injectivity_diagnostic():
    net = fixtures.mini_roles()
    app = PatternApplication("x", "BI_7", {"p_r1": "p_ra", "p_r2": "p_ra"})
    diags = validate_mapping(net, app)
    assert any(d.code == "InjectivityViolation" for d in diags)


def test_missing_mapping_diagnostic():
    net = fixtures.mini_chain()
    diags = validate_mapping(net, PatternApplication("x", "BI_3"))
    assert any(d.code == "MissingMapping" for d in diags)


def _element_dicts(net: Net) -> dict:
    d = net_to_dict(net)
    places = {p["id"]: p for p in d["places"]}
    transitions = {t["id"]: t for t in d["transitions"]}
    return places, transitions, d["arcs"]


def test_apply_is_a_strict_element_superset():
    for name, net, app in fixtures.additivity_cases():
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
    net = fixtures.mini_queue()
    app = PatternApplication("o1", "BI_5", {"p_q1": "p_qa", "p_q2": "p_qb"})
    out = apply(net, app)
    assert len(out.places) == len(net.places) + 1
    assert len(out.transitions) == len(net.transitions) + 1


def test_timing_only_apply_is_structurally_identity():
    net = fixtures.mini_chain()
    app = PatternApplication("t1", "RI_mi^p", {"T": ["alpha", "beta"]},
                             {"window_s": 3600.0})
    out = apply(net, app)
    assert len(out.places) == len(net.places)
    assert len(out.transitions) == len(net.transitions)
    assert len(out.arcs) == len(net.arcs)
    assert len(out.annotations.overrides) == len(net.annotations.overrides) + 1


def test_apply_rejects_invalid_mapping():
    net = fixtures.mini_chain()
    with pytest.raises(InvalidMapping):
        apply(net, PatternApplication("x", "BI_3", {"t": "missing"}))


def test_apply_sequence_empty():
    net = fixtures.mini_chain()
    out, ledger = apply_sequence(net, [])
    assert net_digest(out) == net_digest(net)
    assert ledger.entries == ()


def test_apply_sequence_order_violation():
    net = fixtures.mini_chain()
    apps = [
        PatternApplication("r", "RI_mi^e", {"t": "alpha"}),
        PatternApplication("b", "BI_3", {"t": "alpha"}),
    ]
    with pytest.raises(OrderViolation):
        apply_sequence(net, apps)
    out, ledger = apply_sequence(net, list(reversed(apps)))
    assert [e.origin for e in ledger.entries] == ["behavioral", "recording"]


def test_apply_sequence_rejects_duplicate_application_ids():
    net = fixtures.mini_chain()
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
    net = fixtures.mini_chain()
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
        assert net_canonical_digest(one) == net_canonical_digest(two)
        assert net_digest(one) != ""


def test_additivity_smoke():
    name, net, app = fixtures.additivity_cases()[0]
    out = apply(net, app)
    assert bounded_language(net, 3) <= bounded_language(out, 3)


def test_patterns_stack_onto_created_elements():
    # a recording pattern may match an element another application created
    net = fixtures.mini_chain()
    first = PatternApplication("dup", "RI_in^e", {"t": "alpha", "t_prime": "gamma"})
    second_target = "alpha_as_gamma#dup"
    second = PatternApplication("miss", "RI_mi^e", {"t": second_target})
    out, ledger = apply_sequence(net, [first, second])
    assert any(t.id == f"tau_missing_{second_target}#miss" for t in out.transitions)
    assert validate_net(out) == []
