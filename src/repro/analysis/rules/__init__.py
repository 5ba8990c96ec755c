"""The rule set: one instance of every rule, in id order."""

from repro.analysis.findings import Rule
from repro.analysis.rules.cache_key import CacheKeyCompletenessRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.env_knobs import EnvKnobRule
from repro.analysis.rules.exports import ExportHygieneRule
from repro.analysis.rules.lock_discipline import LockDisciplineRule
from repro.analysis.rules.lock_order import LockOrderRule
from repro.analysis.rules.pickle_safety import PickleSafetyRule
from repro.analysis.rules.resource_lifecycle import ResourceLifecycleRule

#: What every run, ``--select``, ``--list-rules`` and ``--rules-doc``
#: read.
RULES: tuple[Rule, ...] = (
    PickleSafetyRule(),
    LockDisciplineRule(),
    DeterminismRule(),
    EnvKnobRule(),
    ExportHygieneRule(),
    LockOrderRule(),
    ResourceLifecycleRule(),
    CacheKeyCompletenessRule(),
)

__all__ = [
    "RULES",
    "PickleSafetyRule",
    "LockDisciplineRule",
    "DeterminismRule",
    "EnvKnobRule",
    "ExportHygieneRule",
    "LockOrderRule",
    "ResourceLifecycleRule",
    "CacheKeyCompletenessRule",
]
