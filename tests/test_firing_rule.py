"""One firing rule for every path: `fire`, `replay`, `bounded_language` and
the simulator must agree on what a (transition, binding) consumes and
produces."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logforge import fixtures
from logforge.nets import (Arc, Binding, Marking, Net, NotEnabled, ObjectType,
                           Place, Transition, Variable, bounded_language, fire,
                           validate_net)
from logforge.patterns import PatternApplication
from logforge.simulate import Arrival, SimConfig, SimState, run, step, trace_replays
from logforge.timing import Delay
from logforge.transform import apply_sequence


def rebind_net():
    """An output variable flagged fresh that is also bound on an input arc."""
    types = (ObjectType("item", "i"),)
    places = (Place("a", ("item",)), Place("b", ("item",)))
    arcs = (Arc("a", "t", (Variable("x", "item"),)),
            Arc("t", "b", (Variable("x", "item", fresh=True),)))
    return Net(types, places, (Transition("t", "t"),), arcs, Marking.of({"a": [["i_1"]]}))


def test_input_bound_name_is_never_fresh():
    net = rebind_net()
    assert validate_net(net) == []
    firing = ("t", Binding(values=(("x", "i_1"),)))

    _, result = fire(net, net.initial_marking, firing, net.id_generator())
    assert result.produced == (("b", ("i_1",)),)
    assert result.binding.fresh == ()

    trace = run(net, SimConfig(firing_limit=1))
    [record] = trace.records
    assert [(pid, tok) for pid, tok, _ in record.produced] == [("b", ("i_1",))]
    assert record.fresh == ()
    assert trace_replays(net, trace)

    assert bounded_language(net, 1) == {(), (("t", (("x", "i_1"),)),)}


def test_fire_that_is_not_enabled_draws_no_identifier():
    types = (ObjectType("item", "i"), ObjectType("tag", "g"))
    places = (Place("a", ("item",)), Place("b", ("item", "tag")))
    arcs = (Arc("a", "t", (Variable("x", "item"),)),
            Arc("t", "b", (Variable("x", "item"), Variable("y", "tag", fresh=True))))
    net = Net(types, places, (Transition("t", "t"),), arcs, Marking())
    id_gen = net.id_generator()
    with pytest.raises(NotEnabled):
        fire(net, net.initial_marking, ("t", Binding(values=(("x", "i_1"),))), id_gen)
    assert id_gen.fresh("tag") == "g_1"


def test_unbound_output_variable_raises_at_the_first_firing():
    types = (ObjectType("item", "i"),)
    places = (Place("a", ("item",)), Place("b", ("item",)))
    arcs = (Arc("a", "t", (Variable("x", "item"),)),
            Arc("t", "b", (Variable("y", "item"),)))
    net = Net(types, places, (Transition("t", "t"),), arcs, Marking.of({"a": [["i_1"]]}))
    firing = ("t", Binding(values=(("x", "i_1"),)))
    with pytest.raises(NotEnabled, match="'y' unbound"):
        fire(net, net.initial_marking, firing, net.id_generator())
    state = SimState(net, SimConfig(firing_limit=1))
    assert state.firings() == [("t", ("i_1",))]
    with pytest.raises(NotEnabled, match="'y' unbound"):
        step(state)


def roles_switched():
    net, _ = apply_sequence(fixtures.mini_roles(), [
        PatternApplication("s1", "BI_7", {"p_r1": "p_ra", "p_r2": "p_rb"})])
    arrivals = [Arrival("item", "p_i", Delay.exponential(1 / 30.0), 3)]
    return net, arrivals


def corr():
    return fixtures.mini_corr(), []


def corr_rerouted():
    net, _ = apply_sequence(fixtures.mini_corr(), [
        PatternApplication("r1", "BI_1", {"p": "p_b", "p_r": "p_r"})])
    return net, []


NETS = {"roles+BI_7": roles_switched(), "corr": corr(), "corr+BI_1": corr_rerouted()}


@pytest.mark.parametrize("name", sorted(NETS))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_simulator_and_fire_move_the_same_tokens(name, seed):
    net, arrivals = NETS[name]
    config = SimConfig(seed=seed, firing_limit=40, arrivals=arrivals,
                       delays={t.id: Delay.uniform(0.0, 20.0) for t in net.transitions})
    trace = run(net, config)
    assert trace_replays(net, trace)

    marking = net.initial_marking.copy()
    marking.move((), trace.injected)
    id_gen = net.id_generator()
    for record in trace.records:
        binding = Binding(record.values, record.fresh)
        marking, result = fire(net, marking, (record.transition, binding), id_gen)
        assert result.binding == binding
        assert result.consumed == record.consumed
        assert result.produced == tuple((pid, tok) for pid, tok, _ in record.produced)
