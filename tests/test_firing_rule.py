"""One firing rule for every path: `fire`, `replay`, `bounded_language` and
the simulator must agree on what a (transition, binding) consumes and
produces."""
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logforge import fixtures, logio
from logforge.nets import (Arc, Binding, Marking, Net, NotEnabled, ObjectType,
                           Place, Transition, Variable, bounded_language, fire,
                           replay, validate_net)
from logforge.patterns import PatternApplication
from logforge.simulate import Arrival, SimConfig, SimState, run, step, trace_replays
from logforge.timing import Delay
from logforge.transform import apply_sequence

import mini_nets


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


def tag_net():
    """`t` tags an item with a fresh identifier; `u` takes the tagged pair."""
    types = (ObjectType("item", "i"), ObjectType("tag", "g"))
    places = (Place("a", ("item",)), Place("b", ("item", "tag")), Place("c", ("item",)))
    x, y = Variable("x", "item"), Variable("y", "tag")
    arcs = (Arc("a", "t", (x,)), Arc("t", "b", (x, Variable("y", "tag", fresh=True))),
            Arc("b", "u", (x, y)), Arc("u", "c", (x,)))
    return Net(types, places, (Transition("t", "t"), Transition("u", "u")), arcs,
               Marking.of({"a": [["i_1"]]}))


def test_replay_of_an_unknown_transition_is_false():
    net = tag_net()
    assert replay(net, [("v", Binding(values=(("x", "i_1"),)))]) is False


def test_replay_never_mints_an_open_nu_variable():
    net = tag_net()
    tag = ("t", Binding(values=(("x", "i_1"),), fresh=(("y", "g_1"),)))
    take = ("u", Binding(values=(("x", "i_1"), ("y", "g_1"))))
    assert replay(net, [tag, take]) is True
    open_tag = ("t", Binding(values=(("x", "i_1"),)))
    assert replay(net, [open_tag]) is False
    # no identifier is drawn for `y`, so nothing could be taken under one
    assert replay(net, [open_tag, take]) is False
    assert replay(net, [open_tag, ("u", Binding(values=(("x", "i_1"), ("y", "~1"))))]) is False


def test_firing_paths_leave_a_shared_net_unchanged(tmp_path):
    path = str(tmp_path / "model.json")
    logio.write_model(tag_net(), path)
    net = logio.read_model(path)
    assert logio.read_model(path) is net
    before = net.initial_marking.freeze()

    marking, result = fire(net, net.initial_marking, ("t", Binding(values=(("x", "i_1"),))),
                           net.id_generator())
    assert marking.count("b", ("i_1", "g_1")) == 1
    assert replay(net, [(result.transition, result.binding)])
    assert len(bounded_language(net, 2)) == 3
    assert net.initial_marking.freeze() == before
    assert logio.read_model(path).initial_marking.freeze() == before


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


def toy(net, arrivals=()):
    return net, SimConfig(firing_limit=40, arrivals=list(arrivals),
                          delays={t.id: Delay.uniform(0.0, 20.0) for t in net.transitions})


def roles_switched():
    net, _ = apply_sequence(mini_nets.mini_roles(), [
        PatternApplication("s1", "BI_7", {"p_r1": "p_ra", "p_r2": "p_rb"})])
    return toy(net, [Arrival("item", "p_i", Delay.exponential(1 / 30.0), 3)])


def corr_rerouted():
    net, _ = apply_sequence(mini_nets.mini_corr(), [
        PatternApplication("r1", "BI_1", {"p": "p_b", "p_r": "p_r"})])
    return toy(net)


def energy(contracts=20):
    """The energy cell's `ml`, which carries every energy pattern, under its
    own config."""
    net, grid = fixtures.energy_contract_fixture(contracts)
    ms, _ = apply_sequence(net, grid.behavioral_sets[0])
    ml, _ = apply_sequence(ms, grid.recording_sets[0])
    return ml, grid.sim_configs[0]


NETS = {"roles+BI_7": roles_switched(), "corr": toy(mini_nets.mini_corr()),
        "corr+BI_1": corr_rerouted(), "energy20": energy()}


@pytest.mark.parametrize("name", sorted(NETS))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_simulator_and_fire_move_the_same_tokens(name, seed):
    net, config = NETS[name]
    trace = run(net, replace(config, seed=seed))
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


def reference_replay(net, trace) -> bool:
    """`trace_replays` as it was first written: a Binding per record, and
    every consumed token counted in the marking before any is taken."""
    marking = net.initial_marking.copy()
    marking.move((), trace.injected)
    for record in trace.records:
        rule = net.rules.get(record.transition)
        if rule is None:
            return False
        full = dict(record.values + record.fresh)
        if any(name not in full for name in rule.order + rule.nu):
            return False
        row = tuple(full[name] for name in rule.order)
        consumed = rule.take(row)
        if not all(marking.count(pid, tok) >= consumed.count((pid, tok))
                   for pid, tok in consumed):
            return False
        try:
            produced = rule.give(row + tuple(full[name] for name in rule.nu))
        except NotEnabled:
            return False
        marking.move(consumed, produced)
    return True


def mutations(trace):
    """The trace, and each of its mutations that the replays must judge alike:
    (name, trace)."""
    records = trace.records
    yield "as written", trace
    if not records:
        return
    mid = len(records) // 2
    yield "dropped", replace(trace, records=records[:mid] + records[mid + 1:])
    if len(records) > 1:
        swapped = list(records)
        swapped[mid - 1], swapped[mid] = swapped[mid], swapped[mid - 1]
        yield "swapped", replace(trace, records=tuple(swapped))
    at = next((i for i, r in enumerate(records) if r.values), None)
    if at is not None:
        r = records[at]
        (name, _), *rest = r.values
        renamed = replace(r, values=((name, "nobody"), *rest))
        yield "renamed", replace(trace, records=records[:at] + (renamed,) + records[at + 1:])
    unknown = replace(records[mid], transition="no-such-transition")
    yield "unknown", replace(trace, records=records[:mid] + (unknown,) + records[mid + 1:])
    at = next((i for i, r in enumerate(records) if r.fresh), None)
    if at is not None:
        unminted = replace(records[at], fresh=records[at].fresh[1:])
        yield "no nu value", replace(trace, records=records[:at] + (unminted,) + records[at + 1:])


def test_trace_replays_judges_every_fixture_trace_and_mutation_as_before(fixture_datasets):
    judged = {}
    for out, manifest in fixture_datasets.values():
        for entry in manifest.cells:
            ml = logio.read_model(f"{out}/{entry['paths']['model']}")
            trace = logio.read_trace(f"{out}/{entry['paths']['trace']}", ml)
            for name, mutated in mutations(trace):
                verdict = trace_replays(ml, mutated)
                assert verdict == reference_replay(ml, mutated), (entry["cell_id"], name)
                judged.setdefault(name, set()).add(verdict)
    assert judged["as written"] == {True}
    assert judged["unknown"] == judged["renamed"] == judged["no nu value"] == {False}
    assert False in judged["dropped"] and False in judged["swapped"]


def test_fire_that_is_not_enabled_leaves_its_marking_unchanged():
    types = (ObjectType("item", "i"), ObjectType("tag", "g"))
    places = (Place("a", ("item",)), Place("b", ("item", "tag")), Place("c", ("item",)))
    x, y = Variable("x", "item"), Variable("y", "tag")
    # `j` takes from `a`, then from `b`: the token of `a` is there, that of
    # `b` is not
    arcs = (Arc("a", "j", (x,)), Arc("b", "j", (x, y)), Arc("j", "c", (x,)))
    net = Net(types, places, (Transition("j", "j"),), arcs, Marking())
    marking = Marking.of({"a": [["i_1"]], "b": [["i_1", "g_1"]]})
    before = marking.freeze()
    with pytest.raises(NotEnabled, match=r"j not enabled under \{'x': 'i_1', 'y': 'g_2'\}"):
        fire(net, marking, ("j", Binding(values=(("x", "i_1"), ("y", "g_2")))),
             net.id_generator())
    assert marking.freeze() == before
    assert not replay(net, [("j", Binding(values=(("x", "i_1"), ("y", "g_2"))))],
                      extra_tokens=[("a", ("i_1",))])
