"""repro.analysis — AST-based invariant lint for this repository.

The dynamic suites (oracle corpus, metamorphic tests, soak runs)
verify behaviour; this package verifies the *invariant shapes* those
suites rely on, at commit time and in about two seconds:

========  ==========================================================
RPL001    ``__slots__`` classes define explicit pickle support
RPL002    guarded service state is touched with the service lock held
RPL003    no unseeded randomness; no wall clock in counted paths
RPL004    vectorized kernels keep ``*_reference`` twins + tests
RPL005    no module reads or writes a ``REPRO_*`` env variable
RPL006    ``__all__`` entries and cross-module re-exports resolve
RPL007    lock order is acyclic; no executor call under a lock
RPL008    shared-memory resources are released on every CFG path
RPL009    executed request fields reach every cache-key site
========  ==========================================================

Run ``python -m repro.analysis src``: it scans the whole tree and
exits 0 when clean, 1 on any finding, 2 on a usage or internal error.
Suppress a single line with ``# repro: ignore[RPL001]``.
"""

from repro.analysis.engine import (
    AnalysisRequest,
    AnalysisResult,
    analyze_paths,
)
from repro.analysis.findings import Finding
from repro.analysis.registry import (
    Rule,
    RuleConfig,
    build_rules,
    register_rule,
    registered_rules,
)

__all__ = [
    "AnalysisRequest",
    "AnalysisResult",
    "analyze_paths",
    "Finding",
    "Rule",
    "RuleConfig",
    "build_rules",
    "register_rule",
    "registered_rules",
]
