"""logforge: synthetic process data with ground truth.

Deviation patterns (behavioral outliers and recording errors) are woven into
typed Petri nets with identifiers via additive model transformations; the
transformed net is played out as a stochastic timed simulation, yielding an
observed event log plus a ground-truth trace linking every event back to the
transition that produced it.
"""
from .nets import (Arc, Binding, Marking, Net, ObjectType, Place,
                   ProvenanceTag, Transition, Variable, bounded_language,
                   enabled_bindings, fire, replay, validate_net)
from .patterns import CATALOG, PatternApplication
from .simulate import GroundTruthTrace, SimConfig, run
from .timing import Delay
from .transform import apply, apply_sequence, validate_mapping

__version__ = "0.1.0"

__all__ = [
    "Arc", "Binding", "CATALOG", "Delay", "GroundTruthTrace", "Marking", "Net",
    "ObjectType", "PatternApplication", "Place", "ProvenanceTag", "SimConfig",
    "Transition", "Variable", "apply", "apply_sequence", "bounded_language",
    "enabled_bindings", "fire", "replay", "run", "validate_mapping",
    "validate_net",
]
