"""Stochastic, timed play-out of a net.

One run is a single-threaded event loop over a simulation state: at each step
either a firing is sampled from the enabled set (categorical over
time-dependent transition weights, split uniformly over a transition's
bindings) or the clock advances to the next pending token, arrival, schedule
event or weight breakpoint.  Produced tokens become available after a sampled
delay; transitions cannot consume them earlier.

Runs are reproducible: the PRNG is numpy's PCG64 seeded from the config seed,
and the enabled set is enumerated in a fixed order, so identical (net, config)
pairs yield bit-identical traces.
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .nets import (OBJECT_SEPARATOR, Binding, FiringRule, Net, ProvenanceTag,
                   is_identifier, transition_bindings)
from .serialize import digest_of, net_digest
from .timing import (NUMBER, ConfigInvalid, Delay, ReportRule, reject_unknown_keys,
                     slot_init, typed, weight_piece)

PRNG_NAME = "numpy-pcg64"
DEFAULT_EPOCH = "2024-03-04T08:00:00Z"


class AllWeightsZero(Exception):
    """Every enabled firing has weight zero at the current time."""


@dataclass(frozen=True)
class Arrival:
    """Spontaneous objects of one type entering a place."""

    object_type: str
    target_place: str
    inter_arrival: Delay
    count: int
    first_at: float = 0.0

    def to_dict(self) -> dict:
        return {"object_type": self.object_type, "target_place": self.target_place,
                "inter_arrival": self.inter_arrival.to_dict(), "count": self.count,
                "first_at": self.first_at}

    @classmethod
    def from_dict(cls, d: dict) -> "Arrival":
        reject_unknown_keys(d, [f.name for f in fields(cls)], "arrival")
        return cls(typed(d, "object_type", (str,)), typed(d, "target_place", (str,)),
                   Delay.from_dict(typed(d, "inter_arrival", (dict,))),
                   int(typed(d, "count", (int,), whole=True)),
                   float(typed(d, "first_at", NUMBER, 0.0)))


@dataclass(frozen=True)
class ScheduleEntry:
    """A scheduled resource token: present from start, withdrawn at stop."""

    place: str
    token: tuple[str, ...]
    start: float
    stop: float | None = None

    def to_dict(self) -> dict:
        return {"place": self.place, "token": list(self.token),
                "start": self.start, "stop": self.stop}

    @classmethod
    def from_dict(cls, d: dict) -> "ScheduleEntry":
        reject_unknown_keys(d, [f.name for f in fields(cls)], "schedule")
        token = typed(d, "token", (list,))
        if not all(map(is_identifier, token)):
            raise ConfigInvalid(f"a schedule token must be a list of identifiers, got {token!r}")
        stop = typed(d, "stop", NUMBER, None)
        return cls(typed(d, "place", (str,)), tuple(token), float(typed(d, "start", NUMBER)),
                   None if stop is None else float(stop))


@dataclass
class SimConfig:
    """Everything a run needs besides the net itself."""

    seed: int = 0
    weights: dict = field(default_factory=dict)        # tid -> [(from_time, weight), ...]
    delays: dict = field(default_factory=dict)         # tid -> Delay
    arc_delays: dict = field(default_factory=dict)     # (tid, place) -> Delay
    arrivals: list = field(default_factory=list)
    schedules: list = field(default_factory=list)
    firing_limit: int | None = None
    time_horizon: float | None = None
    timestamp_epoch: str = DEFAULT_EPOCH
    run_id: str = "run"

    def to_dict(self) -> dict:
        return {
            "prng": PRNG_NAME,
            "seed": self.seed,
            "weights": {t: [[f, w] for f, w in pieces] for t, pieces in sorted(self.weights.items())},
            "delays": {t: d.to_dict() for t, d in sorted(self.delays.items())},
            "arc_delays": {f"{t}->{p}": d.to_dict() for (t, p), d in sorted(self.arc_delays.items())},
            "arrivals": [a.to_dict() for a in self.arrivals],
            "schedules": [s.to_dict() for s in self.schedules],
            "firing_limit": self.firing_limit,
            "time_horizon": self.time_horizon,
            "timestamp_epoch": self.timestamp_epoch,
            "run_id": self.run_id,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        """Read what `to_dict` writes, plus the `schema_version` of a config
        file.  An unknown key or a malformed value raises ConfigInvalid."""
        reject_unknown_keys(d, _CONFIG_KEYS, "sim config")
        if typed(d, "prng", (str,), PRNG_NAME) != PRNG_NAME:
            raise ConfigInvalid(f"prng {d['prng']!r} is not supported, only {PRNG_NAME!r}")
        arc_delays = {}
        for key, dd in typed(d, "arc_delays", (dict,), {}).items():
            tid, arrow, pid = key.partition("->")
            if not arrow:
                raise ConfigInvalid(f"arc delay key {key!r} is not 'transition->place'")
            arc_delays[(tid, pid)] = Delay.from_dict(dd)
        weights = typed(d, "weights", (dict,), {})
        return cls(
            seed=typed(d, "seed", (int,), 0),
            weights={t: [weight_piece(p) for p in typed(weights, t, (list,))] for t in weights},
            delays={t: Delay.from_dict(dd) for t, dd in typed(d, "delays", (dict,), {}).items()},
            arc_delays=arc_delays,
            arrivals=[Arrival.from_dict(a) for a in typed(d, "arrivals", (list,), [])],
            schedules=[ScheduleEntry.from_dict(s) for s in typed(d, "schedules", (list,), [])],
            firing_limit=typed(d, "firing_limit", (int,), None, whole=True),
            time_horizon=typed(d, "time_horizon", NUMBER, None),
            timestamp_epoch=typed(d, "timestamp_epoch", (str,), DEFAULT_EPOCH),
            run_id=typed(d, "run_id", (str,), "run"),
        )

    def digest(self) -> str:
        return digest_of(self.to_dict())


_CONFIG_KEYS = frozenset(SimConfig().to_dict()) | {"schema_version"}


def epoch_seconds(stamp: str) -> float:
    return datetime.fromisoformat(stamp.replace("Z", "+00:00")).timestamp()


def timestamp_at(epoch_s: float, eta: float) -> str:
    """The ISO 8601 UTC stamp `eta` seconds after `epoch_s`, the epoch
    in seconds."""
    dt = datetime.fromtimestamp(epoch_s + eta, tz=timezone.utc)
    return dt.isoformat().replace("+00:00", "Z")


class WeightSpec:
    """Piecewise-constant transition weights over simulation time.

    Resolution per transition: configured schedule, else the net's annotated
    default pieces (deviation transitions), else 1.0.  Before a transition's
    first breakpoint its default applies.

    Both sources are merged into one breakpoint table per transition when the
    spec is built.  `at` remembers the piece it resolved last for each
    transition and looks the table up again only once the clock has left it.
    """

    def __init__(self, defaults: dict | None = None, schedule: dict | None = None):
        def norm(pieces):
            pieces = sorted((float(f), float(w)) for f, w in pieces)
            if any(w < 0 for _, w in pieces):
                raise ConfigInvalid("negative transition weight")
            if not all(math.isfinite(w) for _, w in pieces):
                raise ConfigInvalid("transition weight must be finite")
            if any(math.isnan(f) for f, _ in pieces):
                raise ConfigInvalid("weight breakpoint is NaN")
            return [f for f, _ in pieces], [w for _, w in pieces]

        defaults = {t: norm(p) for t, p in (defaults or {}).items()}
        schedule = {t: norm(p) for t, p in (schedule or {}).items()}
        # tid -> (froms, weights): weights[i] holds on [froms[i], froms[i + 1])
        self._tables: dict[str, tuple[list[float], list[float]]] = {}
        for tid in sorted(schedule.keys() | defaults.keys()):
            sources = [table[tid] for table in (schedule, defaults) if tid in table]
            merged = {-math.inf: 1.0}
            for f in sorted({f for froms, _ in sources for f in froms}):
                for froms, weights in sources:
                    i = bisect_right(froms, f) - 1
                    if i >= 0:
                        merged[f] = weights[i]
                        break
            self._tables[tid] = (list(merged), list(merged.values()))
        self._breakpoints = sorted({f for froms, _ in self._tables.values() for f in froms[1:]})
        self._memo: dict[str, tuple[float, float, float]] = {}   # tid -> (from, until, weight)

    @classmethod
    def for_run(cls, net: Net, config: SimConfig) -> "WeightSpec":
        return cls(defaults=dict(net.annotations.weights), schedule=config.weights)

    def at(self, tid: str, eta: float) -> float:
        memo = self._memo.get(tid)
        if memo is not None and memo[0] <= eta < memo[1]:
            return memo[2]
        table = self._tables.get(tid)
        if table is None:
            return 1.0
        froms, weights = table
        i = bisect_right(froms, eta) - 1
        until = froms[i + 1] if i + 1 < len(froms) else math.inf
        self._memo[tid] = (froms[i], until, weights[i])
        return weights[i]

    def breakpoints_after(self, eta: float) -> float | None:
        i = bisect_right(self._breakpoints, eta)
        return self._breakpoints[i] if i < len(self._breakpoints) else None


@slot_init
@dataclass(frozen=True, slots=True)
class FiringRecord:
    """One firing of the ground-truth trace, fully linked to the model."""

    seq_no: int
    time: float
    transition: str
    activity: str | None
    values: tuple[tuple[str, str], ...]
    fresh: tuple[tuple[str, str], ...]
    provenance: ProvenanceTag
    consumed: tuple[tuple[str, tuple[str, ...]], ...]
    produced: tuple[tuple[str, tuple[str, ...], float], ...]
    recorded_objects: tuple[str, ...]
    coarsen_window: float | None = None
    timing_causes: tuple[str, ...] = ()

    def binding(self) -> Binding:
        return Binding(self.values, self.fresh)


@dataclass
class GroundTruthTrace:
    run_id: str
    seed: int
    epoch: str
    records: tuple[FiringRecord, ...]
    model_digests: dict
    config_digest: str
    object_types: dict
    pattern_stats: dict
    report_rules: tuple[ReportRule, ...]
    termination: str
    final_time: float
    injected: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def labeled_records(self) -> list[FiringRecord]:
        return [r for r in self.records if r.activity is not None]

    def firing_sequence(self) -> list[tuple[str, Binding]]:
        return [(r.transition, r.binding()) for r in self.records]


def _shares(enabled, weights: WeightSpec, eta: float) -> tuple[list[float], float]:
    """Each enabled firing's share of its transition's weight (split uniformly
    over the transition's enabled bindings), and the sum of the shares."""
    count: dict[str, int] = {}
    for tid, _ in enabled:
        count[tid] = count.get(tid, 0) + 1
    at = weights.at
    share = {tid: at(tid, eta) / n for tid, n in count.items()}
    shares = [share[tid] for tid, _ in enabled]
    total = sum(shares)
    if total <= 0:
        raise AllWeightsZero("all enabled firings have zero weight")
    return shares, total


def firing_probabilities(enabled, weights: WeightSpec, eta: float) -> list[float]:
    """Probability of each enabled firing under the categorical sampling law."""
    shares, total = _shares(enabled, weights, eta)
    return [s / total for s in shares]


def sample_firing(enabled, weights: WeightSpec, eta: float, rng):
    """The first firing whose running share sum exceeds one uniform draw
    scaled to the total.  Only each firing's transition, `enabled[i][0]`, is
    read, so a firing may carry a Binding or a positional row."""
    if not enabled:
        raise ValueError("no enabled firings to sample from")
    shares, total = _shares(enabled, weights, eta)
    i = bisect_right(list(accumulate(shares)), float(rng.random()) * total)
    return enabled[i] if i < len(enabled) else enabled[-1]


class _TransitionPlan(NamedTuple):
    """What a firing of one transition needs, resolved once per run: the
    net's rule, then the run's delays and annotations."""

    rule: FiringRule
    delay: Delay | None               # production delay (override, else config)
    arc_delays: tuple                 # per output arc: its configured Delay or None
    slow: tuple | None                # (probability, Delay, application id)
    coarsen: tuple | None             # (window_s, application id)
    deviation_stats: dict | None      # stats of the probe a firing is a deviation of


class SimState:
    """Mutable state of one run: clock, marking, pending tokens, RNG.

    Also keeps the enabled set, as positional rows (see `nets`): each
    transition's rows are re-enumerated only when one of its input places
    changed, and the flat list of (transition, row) firings is rebuilt only
    when some transition's rows did change.
    """

    def __init__(self, net: Net, config: SimConfig):
        _validate_config(net, config)
        self.net = net
        self.config = config
        self.weights = WeightSpec.for_run(net, config)
        self.rng = np.random.default_rng(np.random.PCG64(np.random.SeedSequence(config.seed)))
        self.id_gen = net.id_generator()
        self.marking = net.initial_marking.copy()
        self.eta = 0.0
        self.fired = 0
        self.seq_no = 0
        self.done: str | None = None
        self.records: list[FiringRecord] = []
        self.object_types: dict[str, str] = {}
        self.heap: list = []   # (time, tiebreak, kind, place, token)
        self._tie = 0
        self.pending_removals: Counter = Counter()
        self.injected: list[tuple[str, tuple[str, ...]]] = []

        self._dirty = {t.id for t in net.transitions}
        self._rows: dict[str, list[tuple[str, ...]]] = dict.fromkeys(self._dirty, [])
        self._live: set[str] = set()   # the transitions with rows
        self._consumers = net.consumers_of
        self._firings: list[tuple[str, tuple[str, ...]]] = []

        delays = dict(config.delays)
        coarsen: dict[str, tuple[float, str]] = {}
        slow: dict[str, tuple[float, Delay, str]] = {}
        for ov in net.annotations.overrides:
            if ov.kind == "delay":
                for tid in ov.transitions:
                    delays[tid] = ov.delay
            elif ov.kind == "coarsen":
                for tid in ov.transitions:
                    coarsen[tid] = (ov.window_s, ov.application_id)
            elif ov.kind == "slow_branch":
                for tid in ov.transitions:
                    slow[tid] = (ov.probability, ov.delay, ov.application_id)

        self._probes = net.annotations.probes
        self.pattern_stats = {
            p.application_id: {"pattern_code": p.pattern_code, "fired": 0,
                               "choice_points": 0, "chosen": 0}
            for p in self._probes
        }
        for ov in net.annotations.overrides:
            self.pattern_stats.setdefault(
                ov.application_id,
                {"pattern_code": ov.pattern_code, "fired": 0, "choice_points": 0, "chosen": 0})
        # tid -> (stats, deviation, competitors, tid is a deviation) of each
        # probe with both sides that names tid on a side
        self._choice_probes: dict[str, list] = {}
        # tid -> stats of the probe whose deviation a firing of tid is
        deviation_stats: dict[str, dict] = {}
        for probe in self._probes:
            if probe.deviation and probe.competitors:
                stats = self.pattern_stats[probe.application_id]
                deviation, competitors = frozenset(probe.deviation), frozenset(probe.competitors)
                for tid in deviation | competitors:
                    self._choice_probes.setdefault(tid, []).append(
                        (stats, deviation, competitors, tid in deviation))
        for t in net.transitions:
            app = t.provenance.application_id
            if any(p.application_id == app and t.id in p.deviation for p in self._probes):
                deviation_stats[t.id] = self.pattern_stats[app]
        arc_delays = config.arc_delays
        self._plans = {
            tid: _TransitionPlan(rule, delays.get(tid),
                                 tuple([arc_delays.get((tid, pid)) for pid, _ in rule.outputs]),
                                 slow.get(tid), coarsen.get(tid), deviation_stats.get(tid))
            for tid, rule in net.rules.items()}

        for pid, token, _ in net.initial_marking.items():
            place = net.place_map[pid]
            for ident, tname in zip(token, place.type_tuple):
                self.object_types.setdefault(ident, tname)

        self._presample_arrivals()
        self._schedule_events()

    # -- setup ------------------------------------------------------------

    def _push(self, time: float, kind: str, place: str, token: tuple[str, ...]):
        self._tie += 1
        heapq.heappush(self.heap, (time, self._tie, kind, place, token))

    def _presample_arrivals(self):
        entries = []
        for spec in self.config.arrivals:
            t = spec.first_at
            for _ in range(spec.count):
                t += spec.inter_arrival.sample(self.rng)
                entries.append((t, len(entries), spec))
        for t, _, spec in sorted(entries, key=lambda e: (e[0], e[1])):
            ident = self.id_gen.fresh(spec.object_type)
            self.object_types.setdefault(ident, spec.object_type)
            self.injected.append((spec.target_place, (ident,)))
            self._push(t, "token", spec.target_place, (ident,))

    def _schedule_events(self):
        for s in self.config.schedules:
            place = self.net.place_map[s.place]
            for ident, tname in zip(s.token, place.type_tuple):
                self.object_types.setdefault(ident, tname)
                self.id_gen.register(ident)
            self.injected.append((s.place, tuple(s.token)))
            self._push(s.start, "token", s.place, tuple(s.token))
            if s.stop is not None:
                self._push(s.stop, "remove", s.place, tuple(s.token))

    # -- marking mutation with cache invalidation --------------------------

    def _add_token(self, place: str, token: tuple[str, ...]):
        if self.pending_removals and self.pending_removals[(place, token)] > 0:
            self.pending_removals[(place, token)] -= 1
            return
        self.marking.add(place, token)
        self._dirty.update(self._consumers.get(place, ()))

    def _remove_token(self, place: str, token: tuple[str, ...]):
        self.marking.remove(place, token)
        # fewer tokens never enable a firing: only enabled consumers can change
        for tid in self._consumers.get(place, ()):
            if tid in self._live:
                self._dirty.add(tid)

    def firings(self) -> list[tuple[str, tuple[str, ...]]]:
        """Every enabled (transition, row) firing, in transition id order,
        then row order.  The list is replaced, never changed in place."""
        changed = False
        for tid in self._dirty:
            rows = transition_bindings(self.net, self.marking, tid)
            if rows != self._rows[tid]:
                self._rows[tid] = rows
                if rows:
                    self._live.add(tid)
                else:
                    self._live.discard(tid)
                changed = True
        self._dirty.clear()
        if changed:
            kept = self._rows
            self._firings = [(tid, row) for tid in sorted(self._live) for row in kept[tid]]
        return self._firings

    def _count_choice_point(self, tid: str):
        """Count a choice point for every probe that names `tid` and has a
        transition enabled with positive weight on both of its sides."""
        probes = self._choice_probes.get(tid)
        if probes is None:
            return
        at, eta = self.weights.at, self.eta
        live = {t for t in self._live if at(t, eta) > 0}
        for stats, deviation, competitors, chosen in probes:
            if not live.isdisjoint(deviation) and not live.isdisjoint(competitors):
                stats["choice_points"] += 1
                if chosen:
                    stats["chosen"] += 1

    # -- stepping -----------------------------------------------------------

    def _advance(self, enabled_nonempty: bool) -> bool:
        horizon = self.config.time_horizon
        nxt = self.heap[0][0] if self.heap else None
        if enabled_nonempty:
            bp = self.weights.breakpoints_after(self.eta)
            if bp is not None and (nxt is None or bp < nxt):
                nxt = bp
        if nxt is None:
            self.done = "deadlock"
            return False
        if horizon is not None and nxt > horizon:
            self.done = "time_horizon"
            return False
        self.eta = nxt
        while self.heap and self.heap[0][0] <= self.eta:
            _, _, kind, place, token = heapq.heappop(self.heap)
            if kind == "token":
                self._add_token(place, token)
            else:
                if self.marking.count(place, token) > 0:
                    self._remove_token(place, token)
                else:
                    self.pending_removals[(place, token)] += 1
        return True

    def _fire(self, tid: str, row: tuple[str, ...]) -> FiringRecord:
        rule, base_delay, arc_delays, slow, coarsen, stats = self._plans[tid]
        consumed = rule.take(row)
        for pid, token in consumed:
            self._remove_token(pid, token)
        minted = tuple([self.id_gen.fresh(otype) for otype in rule.nu_types])
        values = row + minted if minted else row

        timing_causes: list[str] = []
        slow_sample = None
        if slow is not None:
            prob, delay, app = slow
            if float(self.rng.random()) < prob:
                slow_sample = delay.sample(self.rng)
                timing_causes.append(app)
                self.pattern_stats[app]["fired"] += 1
        base_sample = base_delay.sample(self.rng) if base_delay is not None else 0.0

        # every identifier produced is known to id_gen already: it was read
        # from a token or minted above
        produced = []
        for (pid, token), arc_spec in zip(rule.give(values), arc_delays):
            if slow_sample is not None:
                delay = slow_sample
            else:
                delay = arc_spec.sample(self.rng) if arc_spec is not None else base_sample
            avail = self.eta + delay
            produced.append((pid, token, avail))
            if delay <= 0:
                self._add_token(pid, token)
            else:
                self._push(avail, "token", pid, token)

        if coarsen is not None:
            timing_causes.append(coarsen[1])
            self.pattern_stats[coarsen[1]]["fired"] += 1

        setdefault = self.object_types.setdefault
        for ident, otype in zip(values, rule.types):
            setdefault(ident, otype)

        names, t = rule.names, rule.transition
        record = FiringRecord(
            seq_no=self.seq_no,
            time=self.eta,
            transition=tid,
            activity=t.activity_label,
            values=tuple(zip(names, row)),
            fresh=tuple([(names[i], values[i]) for i in rule.fresh_order]),
            provenance=t.provenance,
            consumed=consumed,
            produced=tuple(produced),
            recorded_objects=tuple(dict.fromkeys([values[i] for i in rule.recorded])),
            coarsen_window=coarsen[0] if coarsen else None,
            timing_causes=tuple(timing_causes),
        )
        self.seq_no += 1
        self.fired += 1
        self.records.append(record)

        if stats is not None:
            stats["fired"] += 1
        return record


def _validate_config(net: Net, config: SimConfig):
    if (config.firing_limit is None and config.time_horizon is None
            and net.final_marking is None):
        raise ConfigInvalid(
            "need a firing_limit, a time_horizon, or a final marking to terminate")
    if config.firing_limit is not None and config.firing_limit < 0:
        raise ConfigInvalid("firing_limit must be >= 0")
    if config.seed < 0:
        raise ConfigInvalid(f"seed must be >= 0, got {config.seed}")
    try:
        epoch_seconds(config.timestamp_epoch)
    except ValueError:
        raise ConfigInvalid(f"timestamp_epoch {config.timestamp_epoch!r} is not ISO 8601") from None
    for spec in config.arrivals:
        if spec.count < 0:
            raise ConfigInvalid("arrival count must be >= 0")
        if spec.target_place not in net.place_map:
            raise ConfigInvalid(f"arrival target {spec.target_place!r} unknown")
        if not is_identifier(spec.object_type):  # an undeclared type's ids start with it
            raise ConfigInvalid(f"arrival object type {spec.object_type!r} "
                                f"contains {OBJECT_SEPARATOR!r}")
    for s in config.schedules:
        if s.place not in net.place_map:
            raise ConfigInvalid(f"schedule place {s.place!r} unknown")
        if not all(map(is_identifier, s.token)):
            raise ConfigInvalid(f"schedule token {list(s.token)!r} contains {OBJECT_SEPARATOR!r}")


def step(state: SimState) -> tuple[SimState, FiringRecord | None]:
    """Advance the run by one event.

    Returns (state, record) after a firing, (state, None) after a clock
    advance or once the run is finished (state.done holds the reason).
    """
    if state.done is not None:
        return state, None
    net, config = state.net, state.config
    if net.final_marking is not None and state.marking.contains(net.final_marking):
        state.done = "final_marking"
        return state, None
    if config.firing_limit is not None and state.fired >= config.firing_limit:
        state.done = "firing_limit"
        return state, None

    enabled = state.firings()
    if enabled:
        try:
            firing = sample_firing(enabled, state.weights, state.eta, state.rng)
        except AllWeightsZero:
            firing = None
        if firing is not None:
            state._count_choice_point(firing[0])
            return state, state._fire(*firing)
    state._advance(enabled_nonempty=bool(enabled))
    return state, None


def trace_replays(net: Net, trace: "GroundTruthTrace") -> bool:
    """Replay the trace's firing sequence on `net`, injecting the run's
    spontaneous arrivals and scheduled tokens up front."""
    from .nets import replay
    return replay(net, trace.firing_sequence(), extra_tokens=trace.injected)


def run(ml: Net, config: SimConfig, lineage: dict | None = None) -> GroundTruthTrace:
    """Play out `ml` under `config` until a stop condition holds."""
    state = SimState(ml, config)
    while state.done is None:
        step(state)
    lineage = lineage or {}
    digests = {"ml": lineage["ml"] if "ml" in lineage else net_digest(ml)}
    digests.update(lineage)
    return GroundTruthTrace(
        run_id=config.run_id,
        seed=config.seed,
        epoch=config.timestamp_epoch,
        records=tuple(state.records),
        model_digests=digests,
        config_digest=config.digest(),
        object_types=dict(sorted(state.object_types.items())),
        pattern_stats=state.pattern_stats,
        report_rules=ml.annotations.report_rules,
        termination=state.done,
        final_time=state.eta,
        injected=tuple(state.injected),
    )
