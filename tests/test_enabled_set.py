"""The simulator's kept state against fresh computation.

`SimState` keeps each transition's bindings between steps and samples from
one share per enabled transition.  After every step the kept enabled set
must equal a fresh enumeration (order included), and a fresh enumeration
must equal brute force over token choices.  At every step the kernel must
fire what `sample_firing` draws on a twin generator, and draw nothing at an
instant where every enabled firing has weight zero.  A `WeightSpec` must
resolve each weight as the documented law does.
"""
import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logforge import fixtures
from logforge.nets import (Arc, Binding, Marking, Net, ObjectType, Place, Transition,
                           Variable, enabled_bindings, transition_bindings)
from logforge.patterns import PatternApplication
from logforge.simulate import (AllWeightsZero, Arrival, ScheduleEntry, SimConfig, SimState,
                               WeightSpec, sample_firing, step)
from logforge.timing import Delay
from logforge.transform import apply_sequence

import mini_nets


def brute_force(net, marking):
    """Every (transition, sorted values) whose arcs can each take a token of
    their place at once, tried over every choice of tokens."""
    out = []
    for t in net.transitions:
        arcs = net.inputs_of(t.id)
        choices = [sorted(marking.tokens(a.source)) for a in arcs]
        found = set()
        for tokens in itertools.product(*choices):
            bound = {}
            if any(bound.setdefault(v.name, ident) != ident
                   for a, tok in zip(arcs, tokens) for v, ident in zip(a.inscription, tok)):
                continue
            need = Counter((a.source, tok) for a, tok in zip(arcs, tokens))
            if all(marking.count(pid, tok) >= n for (pid, tok), n in need.items()):
                found.add(tuple(sorted(bound.items())))
        out.extend((t.id, values) for values in sorted(found))
    return sorted(out)


def roles_switched():
    net, _ = apply_sequence(mini_nets.mini_roles(), [
        PatternApplication("s1", "BI_7", {"p_r1": "p_ra", "p_r2": "p_rb"},
                           {"weight": 0.5, "weight_period": 40.0, "weight_window": 10.0,
                            "weight_horizon": 400.0})])
    arrivals = [Arrival("item", "p_i", Delay.exponential(1 / 30.0), 4)]
    # a second resource, withdrawn while it may be busy
    schedules = [ScheduleEntry("p_ra", ("r_9",), 5.0, 50.0)]
    return net, SimConfig(firing_limit=60, arrivals=arrivals, schedules=schedules,
                          delays={t.id: Delay.uniform(0.0, 20.0) for t in net.transitions})


def corr():
    net = mini_nets.mini_corr()
    return net, SimConfig(firing_limit=20)


def energy(contracts=20):
    net, grid = fixtures.energy_contract_fixture(contracts)
    ms, _ = apply_sequence(net, grid.behavioral_sets[0])
    ml, _ = apply_sequence(ms, grid.recording_sets[0])
    return ml, grid.sim_configs[0]


def package_withdrawn():
    """A package cell whose extra courier and van are withdrawn while they
    may be busy (a withdrawal then waits in `pending_removals`), and whose
    base transitions all rest for an hour: instants where every enabled
    firing has weight zero."""
    net, grid = fixtures.package_delivery_fixture()
    ml, _ = apply_sequence(net, grid.behavioral_sets[1])
    rest = [(3600.0, 0.0), (7200.0, 1.0)]
    weights = {t.id: [(0.0, 1.0), *rest] for t in net.transitions}
    weights["pick"] = [(0.0, 0.0), (600.0, 1.0), *rest]
    schedules = [ScheduleEntry("p_c", ("c_9",), 0.0, 1500.0),
                 ScheduleEntry("p_van_pool", ("v_9",), 300.0, 2400.0)]
    arrivals = [Arrival("package", "p_new", Delay.exponential(1 / 900.0), 8)]
    return ml, replace(grid.sim_configs[0], weights=weights, schedules=schedules,
                       arrivals=arrivals)


RUNS = {"roles+BI_7": roles_switched(), "corr": corr(), "energy20": energy(),
        "package-withdrawn": package_withdrawn()}


@pytest.mark.parametrize("name", sorted(RUNS))
@given(seed=st.integers(0, 2**63 - 1))
@settings(max_examples=15, deadline=None)
def test_kept_enabled_set_equals_a_fresh_enumeration(name, seed):
    net, config = RUNS[name]
    state = SimState(net, replace(config, seed=seed))
    steps = 0
    while state.done is None:
        step(state)
        steps += 1
        kept = [(tid, Binding(tuple(zip(net.rules[tid].order, row))))
                for tid, row in state.enabled()[0]]
        assert kept == enabled_bindings(net, state.marking)
        if name != "energy20" or steps % 10 == 0:
            assert [(tid, b.values) for tid, b in kept] == brute_force(net, state.marking)
    assert state.records


@pytest.mark.parametrize("name", sorted(RUNS))
@given(seed=st.integers(0, 2**63 - 1))
@settings(max_examples=15, deadline=None)
def test_the_kernel_fires_what_sample_firing_draws(name, seed):
    net, config = RUNS[name]
    state = SimState(net, replace(config, seed=seed))
    while state.done is None:
        enabled, _ = state.enabled()
        before = (state.rng.state, state.rng.inc)
        # numpy's generator at the same state: each step cross-checks numpy
        twin = np.random.Generator(np.random.PCG64())
        twin.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                    "state": {"state": before[0], "inc": before[1]}}
        try:
            drawn = sample_firing(enabled, state.weights, state.eta, twin) if enabled else None
        except AllWeightsZero:
            drawn = None
        _, record = step(state)
        if drawn is None:   # nothing to sample: the clock advances without a draw
            assert record is None
            assert (state.rng.state, state.rng.inc) == before
        elif record is None:   # the run stopped before sampling
            assert state.done in ("final_marking", "firing_limit")
        else:
            tid, row = drawn
            assert (record.transition, record.values) == (tid, tuple(zip(net.rules[tid].order, row)))


def join_net():
    """Transitions whose input arcs are matched each way: free arcs, an arc
    fully bound by earlier ones, partly bound arcs, a name repeated on one
    arc, places read by more than one arc, and names first bound out of
    sorted order."""
    types = (ObjectType("item", "i"),)
    places = (Place("p", ("item",)), Place("q", ("item", "item")), Place("r", ("item", "item")))
    x, y, z = Variable("x", "item"), Variable("y", "item"), Variable("z", "item")
    inputs = {
        "chain": [("p", (x,)), ("q", (x, y)), ("r", (x, y))],
        "swap": [("q", (x, y)), ("q", (y, x))],
        "twice": [("p", (x,)), ("p", (x,))],
        "pair": [("p", (x,)), ("p", (y,)), ("r", (y, z))],
        "diagonal": [("q", (x, x))],
        "reversed": [("r", (y, x)), ("p", (x,))],
    }
    arcs = tuple(Arc(pid, tid, names) for tid, arcs in inputs.items() for pid, names in arcs)
    arcs += tuple(Arc(tid, "p", (x,)) for tid in inputs)
    transitions = tuple(Transition(tid, tid) for tid in inputs)
    return Net(types, places, transitions, arcs, Marking())


@st.composite
def join_markings(draw):
    ids = st.sampled_from(["i_1", "i_2", "i_3"])
    m = Marking()
    for tok in draw(st.lists(ids, max_size=5)):
        m.add("p", (tok,))
    for place in ("q", "r"):
        for tok in draw(st.lists(st.tuples(ids, ids), max_size=5)):
            m.add(place, tok)
    return m


@given(join_markings())
@settings(max_examples=300, deadline=None)
def test_every_join_kind_matches_brute_force(marking):
    net = join_net()
    got = [(tid, b.values) for tid, b in enabled_bindings(net, marking)]
    assert got == brute_force(net, marking)


@given(join_markings())
@settings(max_examples=200, deadline=None)
def test_rows_are_bindings_in_sorted_variable_order(marking):
    net = join_net()
    rows = [(t.id, tuple(zip(net.rules[t.id].order, row)))
            for t in sorted(net.transitions, key=lambda t: t.id)
            for row in transition_bindings(net, marking, t.id)]
    assert rows == [(tid, b.values) for tid, b in enabled_bindings(net, marking)]
    assert rows == brute_force(net, marking)


def resolve(defaults, schedule, tid, eta):
    """The documented weight law, evaluated directly."""
    for table in (schedule, defaults):
        before = [w for f, w in sorted(table.get(tid, ())) if f <= eta]
        if before:
            return before[-1]
    return 1.0


pieces = st.lists(st.tuples(st.sampled_from([-5.0, 0.0, 2.5, 10.0, 10.0, 40.0]),
                            st.sampled_from([0.0, 0.05, 1.0, 3.0])), max_size=4)


@given(defaults=pieces, schedule=pieces, data=st.data())
@settings(max_examples=300, deadline=None)
def test_remembered_weight_equals_a_fresh_spec(defaults, schedule, data):
    d, s = {"t": defaults}, ({"t": schedule} if schedule else {})
    breaks = {f for f, _ in defaults + schedule}
    times = sorted({eta for f in breaks for eta in (f - 1.0, f, math.nextafter(f, math.inf))}
                   | {-100.0, 100.0})
    spec = WeightSpec(defaults=d, schedule=s)
    for eta in data.draw(st.permutations(times)) + times:
        expected = resolve(d, s, "t", eta)
        assert WeightSpec(defaults=d, schedule=s).at("t", eta) == expected
        assert spec.at("t", eta) == expected
    assert spec.at("other", 0.0) == 1.0
