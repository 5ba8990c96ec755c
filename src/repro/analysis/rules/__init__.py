"""Rule implementations; importing this package registers them all."""

from repro.analysis.rules.cache_key import CacheKeyCompletenessRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.env_knobs import EnvKnobRule
from repro.analysis.rules.exports import ExportHygieneRule
from repro.analysis.rules.lock_discipline import LockDisciplineRule
from repro.analysis.rules.lock_order import LockOrderRule
from repro.analysis.rules.pickle_safety import PickleSafetyRule
from repro.analysis.rules.resource_lifecycle import ResourceLifecycleRule
from repro.analysis.rules.vector_pairing import VectorPairingRule

__all__ = [
    "PickleSafetyRule",
    "LockDisciplineRule",
    "DeterminismRule",
    "VectorPairingRule",
    "EnvKnobRule",
    "ExportHygieneRule",
    "LockOrderRule",
    "ResourceLifecycleRule",
    "CacheKeyCompletenessRule",
]
