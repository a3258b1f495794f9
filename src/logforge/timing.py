"""Delay distributions and per-net simulation annotations.

Annotations are the stochastic side channel of a net: default weights for
deviation transitions, timing overrides contributed by timing-only patterns,
and bookkeeping rules (frequency probes, responsibility rules) that the
simulator and the oracle consume.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields


class ConfigInvalid(ValueError):
    """A simulation setting that would make a run meaningless."""


def reject_unknown_keys(d: dict, known, what: str) -> None:
    """Raise ConfigInvalid unless `d` is an object whose keys are all in
    `known`; the message names every other key."""
    if type(d) is not dict:
        raise ConfigInvalid(f"{what} must be an object, got {d!r}")
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ConfigInvalid(f"unknown {what} key(s) {unknown}; known keys are {sorted(known)}")


_REQUIRED = object()
NUMBER = (int, float)


def typed(d, key, types: tuple, default=_REQUIRED, whole: bool = False):
    """d[key], unchanged, once its type is exactly one of `types` (so a bool
    is no number) and it is not NaN; a missing key, or null where `default`
    is None, gives `default`.  With `whole`, an integral float counts as an
    int.  `d` may be a list indexed by `key`.  Else raise ConfigInvalid."""
    try:
        value = d[key]
    except (KeyError, IndexError):
        if default is _REQUIRED:
            raise ConfigInvalid(f"missing field {key!r}") from None
        return default
    if type(value) in types and value == value:  # NaN != NaN
        return value
    if (value is None and default is None) or (whole and type(value) is float and value.is_integer()):
        return value
    raise ConfigInvalid(f"field {key!r} is not {'/'.join(x.__name__ for x in types)}: {value!r}")


def names(d, key, default=_REQUIRED) -> tuple[str, ...] | None:
    """d[key], a list of strings, as a tuple; a missing key, or null where
    `default` is None, gives `default`.  Else raise ConfigInvalid."""
    value = typed(d, key, (list,), default)
    if type(value) is not list:
        return value
    if not all(type(x) is str for x in value):
        raise ConfigInvalid(f"field {key!r} is not a list of strings: {value!r}")
    return tuple(value)


def slot_init(cls):
    """Give the frozen, slotted dataclass `cls` an `__init__` with the same
    parameters and defaults that stores each value through its slot, not
    through the frozen class's `__setattr__` as the generated one does.
    `cls` must have no `__post_init__` and no default factories."""
    fs = fields(cls)
    if ("__slots__" not in vars(cls) or hasattr(cls, "__post_init__")
            or any(f.default_factory is not MISSING for f in fs)):
        raise TypeError(f"{cls.__name__} needs its own __init__")
    names = [f.name for f in fs]
    namespace = {f"_set_{n}": getattr(cls, n).__set__ for n in names}
    exec(f"def __init__(self, {', '.join(names)}):\n"
         + "".join(f"    _set_{n}(self, {n})\n" for n in names), namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(f.default for f in fs if f.default is not MISSING) or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


def weight_piece(piece) -> tuple[float, float]:
    """A weight piece, [from_time, weight], as a pair of floats."""
    if type(piece) is not list or len(piece) != 2:
        raise ConfigInvalid(f"a weight piece must be [from_time, weight], got {piece!r}")
    return float(typed(piece, 0, NUMBER)), float(typed(piece, 1, NUMBER))


DELAY_KINDS = ("constant", "normal", "exponential", "uniform")


@dataclass(frozen=True)
class Delay:
    """Non-negative sampling distribution for token-production delays.

    kinds: constant(c) | normal(mu, sigma; clamped at 0) | exponential(rate)
    | uniform(low, high).  All values are seconds.  A bad kind or parameter
    raises ConfigInvalid when the delay is built, not when it is sampled.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in DELAY_KINDS:
            raise ConfigInvalid(f"unknown delay kind {self.kind!r}, expected one of {DELAY_KINDS}")
        if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in (self.a, self.b)):
            raise ConfigInvalid(f"{self.kind} delay parameters must be finite numbers")
        if self.kind == "exponential" and self.a <= 0:
            raise ConfigInvalid("exponential delay needs a positive rate")
        if self.kind == "normal" and self.b < 0:
            raise ConfigInvalid("normal delay needs a non-negative sigma")
        if self.kind == "uniform" and self.a > self.b:
            raise ConfigInvalid("uniform delay needs low <= high")

    @classmethod
    def constant(cls, c: float) -> "Delay":
        return cls("constant", float(c))

    @classmethod
    def normal(cls, mu: float, sigma: float) -> "Delay":
        return cls("normal", float(mu), float(sigma))

    @classmethod
    def exponential(cls, rate: float) -> "Delay":
        return cls("exponential", float(rate))

    @classmethod
    def uniform(cls, low: float, high: float) -> "Delay":
        return cls("uniform", float(low), float(high))

    def sample(self, rng) -> float:
        if self.kind == "constant":
            value = self.a
        elif self.kind == "normal":
            value = float(rng.normal(self.a, self.b))
        elif self.kind == "exponential":
            value = float(rng.exponential(1.0 / self.a))
        else:
            value = float(rng.uniform(self.a, self.b))
        return max(0.0, value)  # durations never run backwards

    def to_dict(self) -> dict:
        return {"kind": self.kind, "a": self.a, "b": self.b}

    @classmethod
    def from_dict(cls, d: dict) -> "Delay":
        reject_unknown_keys(d, ("kind", "a", "b"), "delay")
        return cls(typed(d, "kind", (str,)), typed(d, "a", NUMBER, 0.0), typed(d, "b", NUMBER, 0.0))


OVERRIDE_KINDS = ("coarsen", "slow_branch", "delay")


@dataclass(frozen=True)
class TimingOverride:
    """A timing contribution of a pattern application.

    coarsen: emitted timestamps of the target transitions floor to window_s.
    slow_branch: with the given probability a firing of the target draws its
    production delay from `delay` instead of the configured one.
    delay: fixed production-delay replacement for the target transitions.
    """

    kind: str  # coarsen | slow_branch | delay
    transitions: tuple[str, ...]
    application_id: str = ""
    pattern_code: str = ""
    window_s: float = 0.0
    probability: float = 0.0
    delay: Delay | None = None

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "transitions": list(self.transitions),
            "application_id": self.application_id,
            "pattern_code": self.pattern_code,
            "window_s": self.window_s,
            "probability": self.probability,
        }
        if self.delay is not None:
            d["delay"] = self.delay.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TimingOverride":
        if type(d) is not dict:
            raise ConfigInvalid(f"a timing override must be an object, got {d!r}")
        kind = typed(d, "kind", (str,))
        if kind not in OVERRIDE_KINDS:
            raise ConfigInvalid(f"unknown override kind {kind!r}, expected one of {OVERRIDE_KINDS}")
        return cls(
            kind=kind,
            transitions=names(d, "transitions"),
            application_id=typed(d, "application_id", (str,), ""),
            pattern_code=typed(d, "pattern_code", (str,), ""),
            window_s=typed(d, "window_s", NUMBER, 0.0),
            probability=typed(d, "probability", NUMBER, 0.0),
            delay=Delay.from_dict(d["delay"]) if "delay" in d else None,
        )


@dataclass(frozen=True)
class FrequencyProbe:
    """Which firings count as this application's deviation choice vs. the
    competing base choice; used to measure occurrence frequencies."""

    application_id: str
    pattern_code: str
    deviation: tuple[str, ...]
    competitors: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "application_id": self.application_id,
            "pattern_code": self.pattern_code,
            "deviation": list(self.deviation),
            "competitors": list(self.competitors),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FrequencyProbe":
        if type(d) is not dict:
            raise ConfigInvalid(f"a frequency probe must be an object, got {d!r}")
        return cls(typed(d, "application_id", (str,)), typed(d, "pattern_code", (str,)),
                   names(d, "deviation"), names(d, "competitors", ()))


@dataclass(frozen=True)
class ReportRule:
    """Responsible/affected variable names for one created transition.

    responsible=None: every non-fresh bound identifier is responsible.
    affected=None: every non-fresh bound identifier not already responsible.
    """

    transition: str
    responsible: tuple[str, ...] | None = None
    affected: tuple[str, ...] | None = ()

    def to_dict(self) -> dict:
        return {
            "transition": self.transition,
            "responsible": None if self.responsible is None else list(self.responsible),
            "affected": None if self.affected is None else list(self.affected),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ReportRule":
        """Decode a rule; a non-object or a mistyped field raises ConfigInvalid.
        A missing transition still raises KeyError, and a responsible or
        affected value that is not iterable TypeError, before any type
        check, as an unchecked decode did (see `logio._trace_header`)."""
        if type(d) is not dict:
            raise ConfigInvalid(f"a report rule must be an object, got {d!r}")
        if "transition" not in d:
            raise KeyError("transition")
        aff = d.get("affected", [])
        for value in (d.get("responsible"), aff):
            if value is not None:
                iter(value)  # a TypeError if it is not iterable
        return cls(typed(d, "transition", (str,)), names(d, "responsible", None),
                   None if aff is None else names(d, "affected", ()))


@dataclass(frozen=True)
class SimAnnotations:
    """Simulation-facing metadata carried by a net (immutable after build).

    weights holds per-transition piecewise-constant default weights as
    (transition_id, ((from_time, weight), ...)) pairs.
    """

    weights: tuple[tuple[str, tuple[tuple[float, float], ...]], ...] = ()
    overrides: tuple[TimingOverride, ...] = ()
    probes: tuple[FrequencyProbe, ...] = ()
    report_rules: tuple[ReportRule, ...] = ()

    def merged_with(self, weights=(), overrides=(), probes=(), report_rules=()) -> "SimAnnotations":
        return SimAnnotations(
            weights=self.weights + tuple(weights),
            overrides=self.overrides + tuple(overrides),
            probes=self.probes + tuple(probes),
            report_rules=self.report_rules + tuple(report_rules),
        )

    def to_dict(self) -> dict:
        return {
            "weights": [[t, [[f, w] for f, w in pieces]] for t, pieces in self.weights],
            "overrides": [o.to_dict() for o in self.overrides],
            "probes": [p.to_dict() for p in self.probes],
            "report_rules": [r.to_dict() for r in self.report_rules],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimAnnotations":
        return cls(
            weights=tuple((t, tuple(map(weight_piece, pieces)))
                          for t, pieces in typed(d, "weights", (list,), [])),
            overrides=tuple(map(TimingOverride.from_dict, typed(d, "overrides", (list,), []))),
            probes=tuple(map(FrequencyProbe.from_dict, typed(d, "probes", (list,), []))),
            report_rules=tuple(map(ReportRule.from_dict, typed(d, "report_rules", (list,), []))),
        )
