import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from logforge import fixtures
from logforge.logio import trace_to_dicts
from logforge.nets import (Arc, Marking, Net, ObjectType, Place, Transition,
                           Variable)
from logforge.serialize import digest_of
from logforge.simulate import (AllWeightsZero, Arrival, ConfigInvalid,
                               ScheduleEntry, SimConfig, WeightSpec,
                               SimState, run, sample_firing, step,
                               trace_replays)
from logforge.timing import Delay

import mini_nets


def v(name, otype, fresh=False):
    return Variable(name, otype, fresh)


def loop_net(extra_transitions=()):
    """One token circling through competing self-loop transitions."""
    types = (ObjectType("tok", "t"),)
    places = (Place("p", ("tok",)),)
    names = ("a", "b") + tuple(extra_transitions)
    transitions = tuple(Transition(n, n) for n in names)
    arcs = tuple(a for n in names
                 for a in (Arc("p", n, (v("x", "tok"),)), Arc(n, "p", (v("x", "tok"),))))
    return Net(types, places, transitions, arcs, Marking.of({"p": [["t_1"]]}))


def enabled_of(net):
    from logforge.nets import enabled_bindings
    return enabled_bindings(net, net.initial_marking)


def probabilities(state):
    """Each enabled firing of `state` with its probability: its share of
    the total, as `step` samples it."""
    firings, shares = state.enabled()
    total = sum(shares)
    return [(tid, row, share / total) for (tid, row), share in zip(firings, shares)]


def test_firing_probabilities_follow_the_weights():
    state = SimState(loop_net(), SimConfig(firing_limit=1,
                                           weights={"a": [[0.0, 1.0]], "b": [[0.0, 3.0]]}))
    assert probabilities(state) == [("a", ("t_1",), 0.25), ("b", ("t_1",), 0.75)]


def test_single_enabled_firing_is_certain():
    net = mini_nets.mini_chain()
    [(_, _, p)] = probabilities(SimState(net, SimConfig(firing_limit=1)))
    assert p == 1.0
    enabled = enabled_of(net)
    rng = np.random.default_rng(0)
    assert sample_firing(enabled, WeightSpec(), 0.0, rng) == enabled[0]


def test_bindings_split_their_transition_weight_uniformly():
    # each transition at weight 1 has two bindings, so each of the four
    # firings gets probability 1/4
    types = (ObjectType("r", "r"),)
    places = (Place("p", ("r",)), Place("q", ("r",)))
    t1, t2 = Transition("two", "two"), Transition("one", "one")
    arcs = (Arc("p", "two", (v("x", "r"),)), Arc("two", "q", (v("x", "r"),)),
            Arc("p", "one", (v("x", "r"),)), Arc("one", "q", (v("x", "r"),)))
    net = Net(types, places, (t1, t2), arcs, Marking.of({"p": [["r_1"], ["r_2"]]}))
    assert probabilities(SimState(net, SimConfig(firing_limit=1))) == [
        ("one", ("r_1",), 0.25), ("one", ("r_2",), 0.25),
        ("two", ("r_1",), 0.25), ("two", ("r_2",), 0.25)]


def test_sampling_law_empirically():
    from scipy import stats
    net = loop_net(("c",))
    enabled = enabled_of(net)
    ws = WeightSpec(schedule={"a": [(0.0, 1.0)], "b": [(0.0, 1.0)], "c": [(0.0, 2.0)]})
    rng = np.random.default_rng(1234)
    n = 10_000
    counts = Counter(sample_firing(enabled, ws, 0.0, rng)[0] for _ in range(n))
    expected = {"a": 0.25, "b": 0.25, "c": 0.5}
    for tid, p in expected.items():
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(counts[tid] - n * p) <= 3 * sigma
    chi = stats.chisquare([counts["a"], counts["b"], counts["c"]],
                          [n * 0.25, n * 0.25, n * 0.5])
    assert chi.pvalue > 0.001


def test_all_weights_zero_raises():
    net = loop_net()
    ws = WeightSpec(schedule={"a": [(0.0, 0.0)], "b": [(0.0, 0.0)]})
    with pytest.raises(AllWeightsZero):
        sample_firing(enabled_of(net), ws, 0.0, np.random.default_rng(0))


class TopDraw:
    """A generator whose every uniform is the largest double below 1."""

    def random(self):
        return 1 - 2**-53


@pytest.mark.parametrize("shares", [[5e-324, 0.0], [1e308, 1e308, 0.0]],
                         ids=["subnormal-total", "overflowed-total"])
def test_the_top_draw_never_takes_a_zero_share(shares):
    # rounding puts the scaled draw at the total: the last firing with a
    # share is taken, not the zero-share firing after it
    enabled = [(f"t{i}", ()) for i in range(len(shares))]
    drawn = sample_firing(enabled, WeightSpec(), 0.0, TopDraw(), shares=shares)
    assert shares[enabled.index(drawn)] > 0


def test_a_compensated_sum_does_not_bend_the_draw(monkeypatch):
    # from Python 3.12 on, `sum` adds floats with compensation, and ten
    # shares of 0.1 total 1.0, above their last running sum; `math.fsum`
    # stands in for it on any version
    from logforge import simulate
    monkeypatch.setattr(simulate, "sum", math.fsum, raising=False)
    shares = [0.1] * 10 + [0.0]
    enabled = [(f"t{i}", ()) for i in range(len(shares))]
    assert sample_firing(enabled, WeightSpec(), 0.0, TopDraw(), shares=shares) != enabled[-1]


def test_a_zero_weight_transition_never_fires_beside_a_subnormal_one():
    trace = run(loop_net(), SimConfig(seed=3, firing_limit=200,
                                      weights={"a": [[0.0, 5e-324]], "b": [[0.0, 0.0]]}))
    assert [r.transition for r in trace.records] == ["a"] * 200


def lone_net():
    """One self-loop transition `a` on one token: a lone enabled firing."""
    types = (ObjectType("tok", "t"),)
    arcs = (Arc("p", "a", (v("x", "tok"),)), Arc("a", "p", (v("x", "tok"),)))
    return Net(types, (Place("p", ("tok",)),), (Transition("a", "a"),), arcs,
               Marking.of({"p": [["t_1"]]}))


def test_lone_zero_weight_firing_draws_nothing_and_the_clock_advances():
    net = lone_net()
    state = SimState(net, SimConfig(firing_limit=5, weights={"a": [[0.0, 0.0], [10.0, 1.0]]}))
    before = (state.rng.state, state.rng.inc)
    with pytest.raises(AllWeightsZero):
        sample_firing(state.enabled()[0], state.weights, 0.0, state.rng)
    assert (state.rng.state, state.rng.inc) == before
    _, record = step(state)
    assert record is None and state.eta == 10.0
    assert (state.rng.state, state.rng.inc) == before
    _, record = step(state)
    assert record.transition == "a" and record.time == 10.0


def test_lone_positive_weight_firing_draws_exactly_one_uniform():
    net = lone_net()
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    [firing], _ = SimState(net, SimConfig(firing_limit=1)).enabled()
    assert sample_firing([firing], WeightSpec(), 0.0, rng) == firing
    twin.random()
    assert rng.bit_generator.state == twin.bit_generator.state


def test_runs_on_one_net_each_keep_their_own_arc_delays():
    # each transition's compiled rule is shared by the runs; the delays are not
    net = lone_net()

    def produced(delay):
        config = SimConfig(firing_limit=3, arc_delays={("a", "p"): Delay.constant(delay)})
        return [(r.time, r.produced[0][2]) for r in run(net, config).records]

    five = [(0.0, 5.0), (5.0, 10.0), (10.0, 15.0)]
    assert produced(5) == five
    assert produced(9) == [(0.0, 9.0), (9.0, 18.0), (18.0, 27.0)]
    assert produced(5) == five
    plain = SimState(net, SimConfig(firing_limit=1))._plans["a"]
    assert plain.rule is net.rules["a"] and plain.arc_delays == (None,)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_weight_rejected(bad):
    # a NaN or inf share would make sample_firing pick the last enabled firing
    with pytest.raises(ConfigInvalid):
        WeightSpec(schedule={"a": [(0.0, 1.0)], "b": [(0.0, bad)]})
    with pytest.raises(ConfigInvalid):
        WeightSpec(defaults={"a": [(0.0, bad)]})


def test_nan_weight_breakpoint_rejected():
    # NaN breaks the sort, so the weight in force would depend on input order
    with pytest.raises(ConfigInvalid):
        WeightSpec(schedule={"a": [(0.0, 1.0), (math.nan, 5.0)]})


def test_config_requires_a_stop_condition():
    net = mini_nets.mini_chain()
    with pytest.raises(ConfigInvalid):
        run(net, SimConfig(seed=1))


@pytest.mark.parametrize("net, changes, message", [
    (mini_nets.mini_chain(), {"firing_limit": -1}, "firing_limit must be >= 0"),
    (mini_nets.mini_chain(), {"arrivals": [Arrival("item", "p0", Delay.constant(1.0), -1)]},
     "arrival count must be >= 0"),
    (mini_nets.mini_chain(), {"arrivals": [Arrival("item", "p9", Delay.constant(1.0), 1)]},
     "arrival target 'p9' unknown"),
    (mini_nets.mini_chain(), {"schedules": [ScheduleEntry("p9", ("i_2",), 0.0)]},
     "schedule place 'p9' unknown"),
    # on a net with a pair place: an arrival or a schedule token that does not fit its place
    (mini_nets.mini_corr(), {"arrivals": [Arrival("item", "p_b", Delay.constant(1.0), 1)]},
     "arrival target 'p_b' holds ['item', 'res'] tokens, not one 'item' object"),
    (mini_nets.mini_corr(), {"arrivals": [Arrival("res", "p_out", Delay.constant(1.0), 1)]},
     "arrival target 'p_out' holds ['item'] tokens, not one 'res' object"),
    (mini_nets.mini_corr(), {"schedules": [ScheduleEntry("p_b", ("i_2",), 0.0)]},
     "schedule token ['i_2'] does not fit 'p_b', which holds ['item', 'res'] tokens"),
    (mini_nets.mini_corr(), {"schedules": [ScheduleEntry("p_r", ("r_3", "extra"), 0.0)]},
     "schedule token ['r_3', 'extra'] does not fit 'p_r', which holds ['res'] tokens"),
], ids=["negative-firing-limit", "negative-arrival-count", "unknown-arrival-target",
        "unknown-schedule-place", "arrival-into-pair-place", "arrival-of-another-type",
        "short-schedule-token", "long-schedule-token"])
def test_a_config_the_net_cannot_run_is_refused(net, changes, message):
    run(net, SimConfig(firing_limit=1))
    with pytest.raises(ConfigInvalid) as caught:
        run(net, replace(SimConfig(firing_limit=1), **changes))
    assert str(caught.value) == message


def test_whole_floats_read_as_before_only_where_accepted():
    # count and firing_limit take 3.0; count is converted, firing_limit kept,
    # so such configs keep their to_dict bytes and config digest
    _, grid = fixtures.fixture("package_delivery")
    d = grid.sim_configs[0].to_dict()
    d["arrivals"][0]["count"] = 2.0
    d["firing_limit"] = 3000.0
    config = SimConfig.from_dict(d)
    assert type(config.arrivals[0].count) is int and config.arrivals[0].count == 2
    assert type(config.firing_limit) is float and config.to_dict()["firing_limit"] == 3000.0
    for key, value in (("seed", 7.0), ("seed", True), ("time_horizon", True)):
        with pytest.raises(ConfigInvalid):
            SimConfig.from_dict({**d, key: value})


def test_delayed_tokens_materialize_later():
    net = mini_nets.mini_chain()
    config = SimConfig(seed=3, delays={"alpha": Delay.constant(30.0)}, firing_limit=10)
    state = SimState(net, config)
    state, rec = step(state)
    assert rec.transition == "alpha" and rec.time == 0.0
    assert rec.produced[0][2] == 30.0
    assert state.marking.count("p1", ("i_1",)) == 0
    state, rec2 = step(state)  # nothing enabled: clock jumps
    assert rec2 is None and state.eta == 30.0
    assert state.marking.count("p1", ("i_1",)) == 1


def test_zero_weight_window_disables_until_breakpoint():
    net = loop_net()
    config = SimConfig(
        seed=9,
        weights={"a": [(0.0, 0.0), (3600.0, 1.0)], "b": [(0.0, 0.0), (7200.0, 1.0)]},
        firing_limit=1,
    )
    trace = run(net, config)
    assert len(trace.records) == 1
    assert trace.records[0].transition == "a"
    assert trace.records[0].time == 3600.0


def test_firing_limit_zero_gives_empty_trace():
    net = mini_nets.mini_chain()
    trace = run(net, SimConfig(seed=1, firing_limit=0))
    assert trace.records == ()
    assert trace.termination == "firing_limit"


def test_seed_determinism_bit_identical():
    net, grid = fixtures.fixture("package_delivery")
    config = replace(grid.sim_configs[0], seed=7, run_id="twice")
    one = run(net, config)
    two = run(net, config)
    assert digest_of(list(trace_to_dicts(one))) == digest_of(list(trace_to_dicts(two)))
    different = run(net, replace(config, seed=8))
    assert digest_of(list(trace_to_dicts(different))) != digest_of(list(trace_to_dicts(one)))


def test_arrivals_enter_with_fresh_type_prefixed_ids():
    net, grid = fixtures.fixture("package_delivery")
    trace = run(net, replace(grid.sim_configs[0], seed=11))
    pkg_ids = sorted(i for i, t in trace.object_types.items() if t == "package")
    assert pkg_ids == ["pkg_1", "pkg_2"]
    assert trace.injected and all(p == "p_new" for p, _ in trace.injected)


def test_every_package_reaches_a_terminal_place():
    net, grid = fixtures.fixture("package_delivery")
    for seed in range(5):
        trace = run(net, replace(grid.sim_configs[0], seed=seed))
        done = {tok[0] for r in trace.records if r.transition in ("deliver_home", "collect")
                for pid, tok, _ in r.produced if pid == "p_done"}
        assert done == {"pkg_1", "pkg_2"}, seed
        assert trace_replays(net, trace)


def test_deviation_frequency_converges():
    # binary choice point: deviation at weight eps vs. base at weight 1
    eps = 0.05
    net = loop_net()
    n = 10_000
    config = SimConfig(seed=42, weights={"a": [(0.0, 1.0)], "b": [(0.0, eps)]},
                       firing_limit=n)
    trace = run(net, config)
    frac = sum(1 for r in trace.records if r.transition == "b") / n
    assert abs(frac - eps / (1 + eps)) <= 4 / math.sqrt(n)


def test_pending_conservation():
    net, grid = fixtures.fixture("package_delivery")
    config = replace(grid.sim_configs[0], seed=23, time_horizon=900.0, firing_limit=None)
    state = SimState(net, config)
    while state.done is None:
        step(state)
    balance = Counter()
    for pid, tok, n in net.initial_marking.items():
        balance[(pid, tok)] += n
    for pid, tok in state.injected:
        balance[(pid, tok)] += 1
    for rec in state.records:
        for pid, tok in rec.consumed:
            balance[(pid, tok)] -= 1
        for pid, tok, _ in rec.produced:
            balance[(pid, tok)] += 1
    # injected tokens that never materialized are still in the heap
    in_heap = Counter()
    for _, _, kind, pid, tok in state.heap:
        assert kind == "token"
        in_heap[(pid, tok)] += 1
    in_marking = Counter({(p, t): n for p, t, n in state.marking.items()})
    assert +balance == in_marking + in_heap
    times = [r.time for r in state.records]
    assert times == sorted(times)  # clock monotonicity


def test_schedules_insert_and_withdraw():
    types = (ObjectType("item", "i"), ObjectType("res", "r"))
    places = (Place("p0", ("item",)), Place("p1", ("item",)),
              Place("p_r", ("res",), "resource_idle"))
    t = Transition("work", "work")
    arcs = (Arc("p0", "work", (v("x", "item"),)), Arc("p_r", "work", (v("w", "res"),)),
            Arc("work", "p1", (v("x", "item"),)), Arc("work", "p_r", (v("w", "res"),)))
    net = Net(types, places, (t,), arcs, Marking())
    config = SimConfig(
        seed=5,
        schedules=[ScheduleEntry("p_r", ("r_1",), start=100.0, stop=200.0)],
        arrivals=[Arrival("item", "p0", Delay.constant(50.0), 4)],
        delays={"work": Delay.constant(30.0)},
        time_horizon=1000.0,
    )
    trace = run(net, config)
    worked = [r for r in trace.records if r.transition == "work"]
    # items at 50 and 100 get served once the resource starts at t=100;
    # after the stop at 200 the returned token is withdrawn, nothing else runs
    assert worked and all(100.0 <= r.time <= 200.0 + 30.0 for r in worked)
    assert len(worked) < 4


def test_a_scheduled_identifier_is_never_minted_for_an_arrival():
    net, grid = fixtures.fixture("package_delivery")
    plain = grid.sim_configs[0]
    assert [(a.target_place, a.count) for a in plain.arrivals] == [("p_new", 2)]
    scheduled = replace(plain, schedules=[ScheduleEntry("p_new", ("pkg_1",), start=0.0)])
    before, state = SimState(net, plain), SimState(net, scheduled)
    tokens = [tok for _, tok in state.injected]
    assert tokens == [("pkg_2",), ("pkg_3",), ("pkg_1",)]
    # the arrivals keep their times and draws; only their identifiers move
    assert sorted(e[0] for e in state.heap) == sorted([0.0] + [e[0] for e in before.heap])
    assert (state.rng.state, state.rng.inc) == (before.rng.state, before.rng.inc)
    assert {state.object_types[ident] for (ident,) in tokens} == {"package"}


def test_coarsen_and_slow_branch_tag_firings():
    from logforge.patterns import PatternApplication
    from logforge.transform import apply_sequence
    net = mini_nets.mini_chain()
    ml, _ = apply_sequence(net, [
        PatternApplication("slow", "BI_11", {"t": "alpha"},
                           {"probability": 1.0, "delay": Delay.constant(500.0)}),
        PatternApplication("coarse", "RI_mi^p", {"T": ["beta"]}, {"window_s": 600.0}),
    ])
    trace = run(ml, SimConfig(seed=2, firing_limit=5))
    alpha = next(r for r in trace.records if r.transition == "alpha")
    beta = next(r for r in trace.records if r.transition == "beta")
    assert alpha.timing_causes == ("slow",)
    assert alpha.produced[0][2] == 500.0
    assert beta.coarsen_window == 600.0 and beta.timing_causes == ("coarse",)
    assert trace.pattern_stats["slow"]["fired"] == 1
    assert trace.pattern_stats["coarse"]["fired"] == 1


def test_final_marking_terminates_run():
    net = mini_nets.mini_chain()
    done = Net(net.object_types, net.places, net.transitions, net.arcs,
               net.initial_marking, final_marking=Marking.of({"p2": [["i_1"]]}))
    trace = run(done, SimConfig(seed=1))
    assert trace.termination == "final_marking"
    assert [r.transition for r in trace.records] == ["alpha", "beta"]


def test_delay_parameters_validated():
    with pytest.raises(ValueError):
        Delay.exponential(0.0)
    with pytest.raises(ValueError):
        Delay.normal(10.0, -1.0)
    with pytest.raises(ValueError):
        Delay.uniform(5.0, 1.0)
    rng = np.random.default_rng(0)
    assert Delay.constant(-5.0).sample(rng) == 0.0  # clamped, never negative


@pytest.mark.parametrize("low,high", [(0.0, -0.0), (-1.7e308, 1.7e308), (-1e308, 1e308)],
                         ids=["negative-zero-span", "overflowed-span", "just-overflowed-span"])
def test_a_uniform_delay_that_cannot_be_sampled_is_refused(low, high):
    with pytest.raises(ConfigInvalid, match="high - low to be a finite number >= 0"):
        Delay.uniform(low, high)


def test_a_uniform_delay_with_an_empty_or_wide_span_samples():
    from logforge.pcg64 import Pcg64
    rng = Pcg64(0)
    assert Delay.uniform(-0.0, 0.0).sample(rng) == 0.0
    assert Delay.uniform(2.0, 2.0).sample(rng) == 2.0
    assert Delay.uniform(-5e307, 5e307).sample(rng) >= 0.0


def test_ml_digest_is_computed_once(monkeypatch):
    from logforge import simulate
    from logforge.serialize import net_digest
    net = loop_net()
    config = SimConfig(firing_limit=3)
    assert run(net, config).model_digests == {"ml": net_digest(net)}

    calls = []
    monkeypatch.setattr(simulate, "net_digest", lambda n: calls.append(n) or "fresh")
    lineage = {"m0": "d0", "ml": "given"}
    assert run(net, config, lineage=lineage).model_digests == {"ml": "given", "m0": "d0"}
    assert calls == []
    assert run(net, config, lineage={"m0": "d0"}).model_digests == {"ml": "fresh", "m0": "d0"}
    assert calls == [net]
