"""Stochastic, timed play-out of a net.

One run is a single-threaded event loop over a simulation state: at each step
either a firing is sampled from the enabled set (categorical over
time-dependent transition weights, split uniformly over a transition's
bindings) or the clock advances to the next pending token, arrival, schedule
event or weight breakpoint.  Produced tokens become available after a sampled
delay; transitions cannot consume them earlier.

Runs are reproducible: the PRNG draws numpy's PCG64 stream seeded from the
config seed (`pcg64.Pcg64`, pure Python: numpy is never loaded, and the
installed numpy's version changes no draw), and the enabled set is enumerated
in a fixed order, so identical (net, config) pairs yield bit-identical
traces.  The generator's module is imported by the first run, not with this
module, so that a command that runs nothing never loads its tables.
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from itertools import accumulate
from operator import attrgetter
from typing import NamedTuple

from .nets import (OBJECT_SEPARATOR, FiringRule, Net, ProvenanceTag, is_identifier,
                   replay_pairs, transition_bindings)
from .serialize import digest_of, net_digest
from .timing import (NUMBER, ConfigInvalid, Delay, FrequencyProbe, ReportRule,
                     reject_unknown_keys, typed, weight_piece, weight_value)

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
        reject_unknown_keys(d, _ARRIVAL_KEYS, "arrival")
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
        reject_unknown_keys(d, _SCHEDULE_KEYS, "schedule")
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
_ARRIVAL_KEYS, _SCHEDULE_KEYS = (frozenset(f.name for f in fields(cls))
                                 for cls in (Arrival, ScheduleEntry))


def epoch_seconds(stamp: str) -> float:
    return datetime.fromisoformat(stamp.replace("Z", "+00:00")).timestamp()


_UNIX_EPOCH = datetime(1970, 1, 1)


def timestamp_at(epoch_s: float, eta: float) -> str:
    """The ISO 8601 UTC stamp `eta` seconds after `epoch_s`, the epoch
    in seconds: `datetime.fromtimestamp`'s, which rounds the same float
    half-even to the microsecond as `timedelta` does.  Outside `datetime`'s
    range it raises what `fromtimestamp` raises."""
    try:
        return (_UNIX_EPOCH + timedelta(seconds=epoch_s + eta)).isoformat() + "Z"
    except (OverflowError, ValueError):
        dt = datetime.fromtimestamp(epoch_s + eta, tz=timezone.utc)
        return dt.isoformat().replace("+00:00", "Z")


class WeightSpec:
    """Piecewise-constant transition weights over simulation time.

    Resolution per transition: configured schedule, else the net's annotated
    default pieces (deviation transitions), else 1.0.  Before a transition's
    first breakpoint its default applies.

    Both sources are merged into one breakpoint table per transition when the
    spec is built.
    """

    def __init__(self, defaults: dict | None = None, schedule: dict | None = None):
        def norm(pieces):
            pieces = sorted((float(f), weight_value(float(w))) for f, w in pieces)
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

    def at(self, tid: str, eta: float) -> float:
        table = self._tables.get(tid)
        if table is None:
            return 1.0
        froms, weights = table
        return weights[bisect_right(froms, eta) - 1]

    def breakpoints_after(self, eta: float) -> float | None:
        i = bisect_right(self._breakpoints, eta)
        return self._breakpoints[i] if i < len(self._breakpoints) else None


@dataclass(slots=True)
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


def _shares(enabled, weights: WeightSpec, eta: float) -> list[float]:
    """Each enabled firing's share of its transition's weight, split
    uniformly over the transition's enabled bindings."""
    count: dict[str, int] = {}
    for tid, _ in enabled:
        count[tid] = count.get(tid, 0) + 1
    at = weights.at
    share = {tid: at(tid, eta) / n for tid, n in count.items()}
    return [share[tid] for tid, _ in enabled]


def sample_firing(enabled, weights: WeightSpec, eta: float, rng, *, shares=None):
    """The first firing whose running share sum exceeds one uniform draw
    scaled to the total, the last running sum; a total of zero raises
    AllWeightsZero.  Where rounding puts the scaled draw at the total (a
    subnormal or overflowed total), the last firing with a share is taken,
    so a firing whose share is 0 is never drawn.  Only each firing's
    transition, `enabled[i][0]`, is read, so a firing may carry a Binding or
    a positional row.

    `shares`, when given, are the firings' shares in `enabled`'s order:
    each its transition's weight split evenly over the transition's enabled
    firings.  The simulator passes those of its snapshot
    (`SimState.enabled`)."""
    if not enabled:
        raise ValueError("no enabled firings to sample from")
    if shares is None:
        shares = _shares(enabled, weights, eta)
    ends = list(accumulate(shares))
    total = ends[-1]
    if total <= 0:
        raise AllWeightsZero("all enabled firings have zero weight")
    i = bisect_right(ends, rng.random() * total)
    return enabled[i] if i < len(ends) else enabled[bisect_left(ends, total)]


class _TransitionPlan(NamedTuple):
    """Everything a firing of one transition does, resolved once per run:
    the net's rule, the run's delays, and the pattern statistics it bumps."""

    rule: FiringRule
    delay: Delay | None               # production delay (override, else config)
    arc_delays: tuple                 # per output arc: its configured Delay or None
    slow: tuple | None                # (probability, Delay, application id, stats)
    coarsen: tuple | None             # (window_s, application id)
    fired: tuple                      # stats every firing bumps: its probe's, its coarsening's
    choices: tuple                    # (stats, deviation, competitors, chosen) per probe naming it


class SimState:
    """Mutable state of one run: clock, marking, pending tokens, RNG.

    Also keeps the enabled set, as positional rows (see `nets`): `_rows`
    holds the rows of exactly the transitions that have some, `_live` their
    ids in sorted order.  A transition is re-enumerated only when a token
    enters one of its input places while all of them hold some, or leaves
    one while it is enabled; when that place empties, its rows are dropped
    without an enumeration.  Each step takes one snapshot, `enabled()`: the
    flat list of (transition, row) firings and their shares, one weight
    lookup per enabled transition.  A total share of zero advances the
    clock.  A firing reads its transition's plan (`_plans`) and nothing else
    of the annotations.  Each identifier's object type is recorded where it
    enters the run: from the initial marking, a schedule, an arrival, or a
    firing that mints it.
    """

    def __init__(self, net: Net, config: SimConfig):
        _validate_config(net, config)
        self.net = net
        self.config = config
        self.weights = WeightSpec(dict(net.annotations.weights), config.weights)
        from .pcg64 import Pcg64  # its tables load at the first run
        self.rng = Pcg64(config.seed)
        self.id_gen = net.id_generator()
        self.marking = net.initial_marking.copy()
        self.eta = 0.0
        self.seq_no = 0
        self.done: str | None = None
        self.records: list[FiringRecord] = []
        self.object_types: dict[str, str] = {}
        self.heap: list = []   # (time, tiebreak, kind, place, token)
        self._tie = 0
        self.pending_removals: Counter = Counter()
        self.injected: list[tuple[str, tuple[str, ...]]] = []

        held = self.marking._tokens
        self._dirty = {tid for tid, rule in net.rules.items()
                       if all(pid in held for pid in rule.places)}
        self._rows: dict[str, list[tuple[str, ...]]] = {}
        self._live: list[str] = []   # the keys of _rows, sorted
        self._consumers = net.consumers_of

        # one stats dict per application; the first annotation naming it
        # gives its pattern code
        self.pattern_stats: dict[str, dict] = {}
        delays = dict(config.delays)
        slow: dict[str, tuple] = {}
        coarsen: dict[str, tuple] = {}
        fired: dict[str, dict] = {}   # tid -> {"deviation"/"coarsen": stats}
        choices: dict[str, list] = {}
        tmap = net.transition_map
        for ann in (*net.annotations.probes, *net.annotations.overrides):
            app = ann.application_id
            stats = self.pattern_stats.setdefault(app, {
                "pattern_code": ann.pattern_code, "fired": 0, "choice_points": 0, "chosen": 0})
            if isinstance(ann, FrequencyProbe):
                for tid in ann.deviation:   # a firing of tid is a deviation of the probe
                    if tid in tmap and tmap[tid].provenance.application_id == app:
                        fired.setdefault(tid, {})["deviation"] = stats
                if ann.deviation and ann.competitors:
                    for tid in dict.fromkeys(ann.deviation + ann.competitors):
                        choices.setdefault(tid, []).append(
                            (stats, ann.deviation, ann.competitors, tid in ann.deviation))
            elif ann.kind == "delay":
                for tid in ann.transitions:
                    delays[tid] = ann.delay
            elif ann.kind == "coarsen":
                for tid in ann.transitions:
                    coarsen[tid] = (ann.window_s, app)
                    fired.setdefault(tid, {})["coarsen"] = stats
            else:
                for tid in ann.transitions:
                    slow[tid] = (ann.probability, ann.delay, app, stats)
        arc_delays = config.arc_delays
        self._plans = {
            tid: _TransitionPlan(rule, delays.get(tid),
                                 tuple([arc_delays.get((tid, pid)) for pid, _ in rule.outputs]),
                                 slow.get(tid), coarsen.get(tid),
                                 tuple(fired.get(tid, {}).values()), tuple(choices.get(tid, ())))
            for tid, rule in net.rules.items()}

        for pid, token, _ in net.initial_marking.items():
            self._admit(pid, token)
        for s in config.schedules:   # before any arrival's identifier is minted
            self._admit(s.place, s.token)
        self._presample_arrivals()
        self._schedule_events()

    # -- setup ------------------------------------------------------------

    def _admit(self, place: str, token: tuple[str, ...]):
        """Type `token`'s identifiers by `place` and keep id_gen from
        minting them."""
        for ident, tname in zip(token, self.net.place_map[place].type_tuple):
            self.object_types.setdefault(ident, tname)
            self.id_gen.register(ident)

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
        entries.sort()   # no two entries share an index, so specs are never compared
        for t, _, spec in entries:
            ident = self.id_gen.fresh(spec.object_type)
            self.object_types.setdefault(ident, spec.object_type)
            self.injected.append((spec.target_place, (ident,)))
            self._push(t, "token", spec.target_place, (ident,))

    def _schedule_events(self):
        for s in self.config.schedules:
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
        # a consumer with an empty input place stays disabled
        held, dirty = self.marking._tokens, self._dirty
        for tid, places in self._consumers.get(place, ()):
            for pid in places:
                if pid not in held:
                    break
            else:
                dirty.add(tid)

    def _remove_tokens(self, pairs):
        """Remove each (place, token) pair of `pairs` from the marking."""
        self.marking.remove_each(pairs)
        # fewer tokens never enable a firing: only enabled consumers can
        # change, and those of an emptied place have no rows left
        held, rows, dirty = self.marking._tokens, self._rows, self._dirty
        for place, _ in pairs:
            for tid, _ in self._consumers.get(place, ()):
                if tid in rows:
                    if place in held:
                        dirty.add(tid)
                    else:
                        del rows[tid]
                        self._live.remove(tid)

    def enabled(self) -> tuple[list[tuple[str, tuple[str, ...]]], list[float]]:
        """Every enabled (transition, row) firing, in transition id order,
        then row order, and each firing's share now: its transition's weight
        split evenly over the transition's rows.  Both are new lists, built
        in one pass over the kept rows once the transitions marked dirty are
        enumerated again."""
        dirty = self._dirty
        if dirty:
            kept, live, net, marking = self._rows, self._live, self.net, self.marking
            for tid in dirty:
                rows = transition_bindings(net, marking, tid)
                if rows:
                    if tid not in kept:
                        insort(live, tid)
                    kept[tid] = rows
                elif tid in kept:
                    del kept[tid]
                    live.remove(tid)
            dirty.clear()
        at, eta, kept = self.weights.at, self.eta, self._rows
        firings, shares = [], []
        for tid in self._live:
            rows = kept[tid]
            n = len(rows)
            firings += [(tid, row) for row in rows]
            shares += [at(tid, eta) / n] * n
        return firings, shares

    # -- stepping -----------------------------------------------------------

    def _advance(self, enabled_nonempty: bool):
        horizon = self.config.time_horizon
        nxt = self.heap[0][0] if self.heap else None
        if enabled_nonempty:
            bp = self.weights.breakpoints_after(self.eta)
            if bp is not None and (nxt is None or bp < nxt):
                nxt = bp
        if nxt is None:
            self.done = "deadlock"
            return
        if horizon is not None and nxt > horizon:
            self.done = "time_horizon"
            return
        self.eta = nxt
        while self.heap and self.heap[0][0] <= self.eta:
            _, _, kind, place, token = heapq.heappop(self.heap)
            if kind == "token":
                self._add_token(place, token)
            else:
                if self.marking.count(place, token) > 0:
                    self._remove_tokens(((place, token),))
                else:
                    self.pending_removals[(place, token)] += 1

    def _fire(self, tid: str, row: tuple[str, ...]) -> FiringRecord:
        rule, base_delay, arc_delays, slow, coarsen, fired, choices = self._plans[tid]
        eta, rng = self.eta, self.rng
        if choices:
            # a choice point of a probe: some transition on each of its sides
            # is enabled with positive weight (`_rows` is as `step` sampled it)
            rows, at = self._rows, self.weights.at
            for stats, deviation, competitors, chosen in choices:
                if (any(t in rows and at(t, eta) > 0 for t in deviation)
                        and any(t in rows and at(t, eta) > 0 for t in competitors)):
                    stats["choice_points"] += 1
                    if chosen:
                        stats["chosen"] += 1
        consumed = rule.take(row)
        self._remove_tokens(consumed)
        values = row
        if rule.nu_types:
            minted = tuple([self.id_gen.fresh(otype) for otype in rule.nu_types])
            self.object_types.update(zip(minted, rule.nu_types))
            values = row + minted

        timing_causes = ()
        slow_sample = None
        if slow is not None:
            prob, delay, app, stats = slow
            if rng.random() < prob:
                slow_sample = delay.sample(rng)
                timing_causes = (app,)
                stats["fired"] += 1
        base_sample = base_delay.sample(rng) if base_delay is not None else 0.0

        # every identifier produced is known to id_gen already: it was read
        # from a token or minted above
        produced = []
        for (pid, token), arc_spec in zip(rule.give(values), arc_delays):
            if slow_sample is not None:
                delay = slow_sample
            else:
                delay = arc_spec.sample(rng) if arc_spec is not None else base_sample
            avail = eta + delay
            produced.append((pid, token, avail))
            if delay <= 0:
                self._add_token(pid, token)
            else:
                self._push(avail, "token", pid, token)

        if coarsen is not None:
            timing_causes += (coarsen[1],)

        names, t, recorded = rule.names, rule.transition, rule.recorded
        record = FiringRecord(
            self.seq_no, eta, tid, t.activity_label, tuple(zip(names, row)),
            tuple([(names[i], values[i]) for i in rule.fresh_order]) if rule.fresh_order else (),
            t.provenance, consumed, tuple(produced),
            ((values[recorded[0]],) if len(recorded) == 1
             else tuple(dict.fromkeys([values[i] for i in recorded]))),
            coarsen[0] if coarsen else None, timing_causes)
        self.seq_no += 1
        self.records.append(record)
        for stats in fired:
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
    for what, table in (("weights", config.weights), ("delays", config.delays)):
        for tid in table:
            if tid not in net.transition_map:
                raise ConfigInvalid(f"{what} names {tid!r}, which is no transition of the net")
    for tid, pid in config.arc_delays:
        if all(a.target != pid for a in net.outputs_of(tid)):
            raise ConfigInvalid(f"arc_delays names {tid}->{pid}, which is no output arc of "
                                f"the net")
    for spec in config.arrivals:
        if spec.count < 0:
            raise ConfigInvalid("arrival count must be >= 0")
        if spec.target_place not in net.place_map:
            raise ConfigInvalid(f"arrival target {spec.target_place!r} unknown")
        if not is_identifier(spec.object_type):  # an undeclared type's ids start with it
            raise ConfigInvalid(f"arrival object type {spec.object_type!r} "
                                f"contains {OBJECT_SEPARATOR!r}")
        types = net.place_map[spec.target_place].type_tuple
        if types != (spec.object_type,):
            raise ConfigInvalid(f"arrival target {spec.target_place!r} holds {list(types)} "
                                f"tokens, not one {spec.object_type!r} object")
    for s in config.schedules:
        if s.place not in net.place_map:
            raise ConfigInvalid(f"schedule place {s.place!r} unknown")
        if not all(map(is_identifier, s.token)):
            raise ConfigInvalid(f"schedule token {list(s.token)!r} contains {OBJECT_SEPARATOR!r}")
        types = net.place_map[s.place].type_tuple
        if len(s.token) != len(types):
            raise ConfigInvalid(f"schedule token {list(s.token)!r} does not fit {s.place!r}, "
                                f"which holds {list(types)} tokens")


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
    if config.firing_limit is not None and state.seq_no >= config.firing_limit:
        state.done = "firing_limit"
        return state, None

    enabled, shares = state.enabled()
    if any(shares):   # else nothing is enabled, or every share is 0: the clock advances
        firing = sample_firing(enabled, state.weights, state.eta, state.rng, shares=shares)
        return state, state._fire(*firing)
    state._advance(enabled_nonempty=bool(enabled))
    return state, None


# a record's (transition, values, fresh), the firing it replays
_FIRING = attrgetter("transition", "values", "fresh")


def trace_replays(net: Net, trace: "GroundTruthTrace") -> bool:
    """Replay the trace's records on `net`, each under its own `values` and
    `fresh` pairs, injecting the run's spontaneous arrivals and scheduled
    tokens up front."""
    return replay_pairs(net, map(_FIRING, trace.records), trace.injected)


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
