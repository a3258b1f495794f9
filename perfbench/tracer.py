"""Per-layer tracing from outside the package.

The tracer rebinds the module attributes that callers look up at call time
(`logforge.dataset.run`, `logforge.simulate.step`,
`logforge.simulate.transition_bindings`, `logforge.dataset.apply_sequence`,
...) to wrappers that count calls and time them, and restores them
afterwards.  The package source is not touched.  Wrappers take
`*args, **kwargs`, so a changed signature does not break them; a name that
no longer exists is recorded as absent and its metrics read 0.

Only calls made inside a timed stage are counted; the benchmark's own work
between stages (building candidates) passes through untraced.  Times are
inclusive: a span contains the spans of the calls it makes.  Time spent in
outermost spans is also summed per stage, so a stage's coverage says how
much of its wall time the layers account for.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (owner, attribute, span name).  Owner is "module" or "module:Class".
SPANS = (
    ("logforge.dataset", "run", "simulate.run"),
    ("logforge.simulate:SimState", "__init__", "simulate.state_setup"),
    ("logforge.simulate", "step", "simulate.step"),
    ("logforge.simulate", "sample_firing", "simulate.sample_firing"),
    ("logforge.simulate", "transition_bindings", "nets.transition_bindings"),
    ("logforge.simulate", "trace_replays", "simulate.trace_replays"),
    ("logforge.dataset", "apply_sequence", "transform.apply_sequence"),
    ("logforge.dataset", "net_digest", "serialize.net_digest"),
    ("logforge.simulate", "net_digest", "serialize.net_digest"),
    ("logforge.dataset", "net_from_dict", "serialize.net_from_dict"),
    ("logforge.logio", "net_from_dict", "serialize.net_from_dict"),
    ("logforge.logio", "project_observed", "logio.project_observed"),
    ("logforge.logio", "write_trace", "logio.write_trace"),
    ("logforge.logio", "write_observed_jsonl", "logio.write_observed"),
    ("logforge.logio", "write_observed_csv", "logio.write_observed"),
    ("logforge.logio", "write_model", "logio.write_model"),
    ("logforge.logio", "write_json", "logio.write_json"),
    ("logforge.logio", "read_model", "logio.read_model"),
    ("logforge.logio", "read_trace", "logio.read_trace"),
    ("logforge.logio", "read_observed_jsonl", "logio.read_observed"),
    ("logforge.oracle", "gt_alignment", "oracle.gt_alignment"),
    ("logforge.oracle", "write_alignment", "oracle.write_alignment"),
    ("logforge.oracle", "deviation_report", "oracle.deviation_report"),
    ("logforge.oracle", "read_alignment", "oracle.read_alignment"),
    ("logforge.oracle", "move_distance", "oracle.move_distance"),
)


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """Call counts and inclusive times per span, plus per-outcome step data."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.stage_covered: dict[str, float] = {}
        self._outer_s = 0.0
        self._depth = 0
        self._stage_mark = 0.0
        self._active = False
        self._undo: list = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        for spec, attr, name in SPANS:
            owner = _owner(spec)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{spec}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, original, name: str):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self._active:
                return original(*args, **kwargs)
            self._depth += 1
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._depth -= 1
                self.calls[name] += 1
                self.seconds[name] += dt
                if self._depth == 0:
                    self._outer_s += dt
            if observe is not None:
                observe(args, kwargs, result, dt)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- observers: counts read off arguments and results ---------------------

    def _observe_simulate_step(self, args, kwargs, result, dt):
        record = result[1] if isinstance(result, tuple) and len(result) == 2 else None
        outcome = "fire" if record is not None else "advance"
        self.counts[f"steps_{outcome}"] += 1
        self.seconds[f"simulate.{outcome}_step"] += dt

    def _observe_simulate_sample_firing(self, args, kwargs, result, dt):
        enabled = args[0] if args else kwargs.get("enabled", ())
        n = len(enabled)
        self.counts["enabled_sum"] += n
        self.counts["enabled_max"] = max(self.counts["enabled_max"], n)

    def _observe_nets_transition_bindings(self, args, kwargs, result, dt):
        self.counts["bindings"] += len(result)
        self.counts["bindings_nonempty_calls"] += bool(result)

    # -- stages ---------------------------------------------------------------

    def on_stage(self, stage: str, event: str) -> None:
        """Stage boundary callback: remembers how much of each stage's wall
        time was spent inside outermost spans."""
        self._active = event == "start"
        if self._active:
            self._stage_mark = self._outer_s
        else:
            self.stage_covered[stage] = self._outer_s - self._stage_mark

    # -- metrics --------------------------------------------------------------

    def metrics(self, stage_seconds: dict) -> dict:
        """Per-layer metrics of one traced iteration (see BENCHMARK.json)."""
        s, c, k = self.seconds, self.calls, self.counts
        firings = k["steps_fire"]
        samples = c["simulate.sample_firing"]
        tb_calls = c["nets.transition_bindings"]
        m = {
            "simulate.run_s": s["simulate.run"],
            "simulate.state_setup_s": s["simulate.state_setup"],
            "simulate.steps": c["simulate.step"],
            "simulate.firings": firings,
            # every run ends with one step that neither fires nor advances
            "simulate.advances": max(k["steps_advance"] - c["simulate.run"], 0),
            "simulate.fire_step_s": s["simulate.fire_step"],
            "simulate.advance_step_s": s["simulate.advance_step"],
            "simulate.us_per_firing": 1e6 * s["simulate.run"] / firings if firings else 0.0,
            "simulate.sample_firing_s": s["simulate.sample_firing"],
            "simulate.enabled_mean": k["enabled_sum"] / samples if samples else 0.0,
            "simulate.enabled_max": k["enabled_max"],
            "simulate.trace_replays_s": s["simulate.trace_replays"],
            "nets.transition_bindings_calls": tb_calls,
            "nets.transition_bindings_s": s["nets.transition_bindings"],
            "nets.bindings_enumerated": k["bindings"],
            "nets.nonempty_call_frac": (k["bindings_nonempty_calls"] / tb_calls
                                        if tb_calls else 0.0),
            "transform.apply_sequence_s": s["transform.apply_sequence"],
            "transform.apply_sequence_calls": c["transform.apply_sequence"],
            "serialize.net_digest_s": s["serialize.net_digest"],
            "serialize.net_digest_calls": c["serialize.net_digest"],
            "serialize.net_from_dict_s": s["serialize.net_from_dict"],
            "logio.project_observed_s": s["logio.project_observed"],
            "logio.write_trace_s": s["logio.write_trace"],
            "logio.write_observed_s": s["logio.write_observed"],
            "logio.write_model_s": s["logio.write_model"],
            "logio.write_json_s": s["logio.write_json"],
            "logio.read_model_s": s["logio.read_model"],
            "logio.read_trace_s": s["logio.read_trace"],
            "logio.read_observed_s": s["logio.read_observed"],
            "oracle.gt_alignment_s": s["oracle.gt_alignment"],
            "oracle.write_alignment_s": s["oracle.write_alignment"],
            "oracle.deviation_report_s": s["oracle.deviation_report"],
            "oracle.read_alignment_s": s["oracle.read_alignment"],
            "oracle.move_distance_s": s["oracle.move_distance"],
        }
        for stage, wall in stage_seconds.items():
            covered = self.stage_covered.get(stage, 0.0)
            m[f"trace.{stage}_covered_frac"] = covered / wall if wall else 0.0
        return m
