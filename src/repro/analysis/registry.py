"""Rule framework: base class, registry, per-rule configuration.

Rules register themselves at import time via :func:`register_rule`;
the engine instantiates every registered rule with the run's
:class:`RuleConfig` and concatenates their findings.  Keeping the
registry declarative means ``--list-rules``, ``--select`` and the
generated rule reference need no hand-maintained tables.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, TypeVar

from repro.analysis.context import ProjectContext
from repro.analysis.findings import Finding

if TYPE_CHECKING:
    from repro.analysis.callgraph import CallGraph


@dataclass(frozen=True)
class RuleConfig:
    """Knobs shared by all rules; rules read only what concerns them.

    Every field has a default matched to this repository, and the test
    suite overrides them to point rules at fixture trees — the scope
    patterns are segment matches on dotted module names, so a fixture
    package named ``analysis_fixtures.service`` exercises the service
    rules without touching ``repro.service`` itself.
    """

    #: Base classes that make a ``__slots__`` class pickle-safe.
    pickle_mixins: tuple[str, ...] = ("SlotPickleMixin",)
    #: Attribute names whose access requires the service lock.
    guarded_attributes: tuple[str, ...] = ("_catalog", "_cache", "_results")
    #: The lock attribute guarding the above.
    lock_attribute: str = "_lock"
    #: Module-name segment that puts a module in lock-rule scope.
    service_segment: str = "service"
    #: Module-name segments where wall-clock reads are banned.
    clock_banned_segments: tuple[str, ...] = ("joins", "core", "stats")
    #: Decorator names that tag a function as a vectorized kernel.
    vectorized_decorators: tuple[str, ...] = ("vectorized_kernel",)
    #: Environment-variable prefix no module may read or write (RPL005).
    env_prefix: str = "REPRO_"
    #: Module-name segments in lock-order (RPL007) scope.
    lock_order_segments: tuple[str, ...] = ("service", "storage")
    #: Callee suffixes a thread must never invoke while holding a lock.
    lock_blocking_targets: tuple[str, ...] = ("BatchExecutor.run",)
    #: Resource-factory callees (last dotted segment) mapped to the
    #: method names that settle the obligation (RPL008).
    resource_factories: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: {
            "SharedMemory": ("close", "unlink"),
            "SharedDatasetPool": ("close",),
            "_attach_untracked": ("close",),
        }
    )
    #: Request dataclasses whose fields must reach the cache key (RPL009).
    request_classes: tuple[str, ...] = ("JoinRequest",)
    #: Functions that derive the result-cache key.
    cache_key_functions: tuple[str, ...] = ("request_cache_key",)
    #: Request fields exempt from cache-key coverage (presentation only).
    cache_exempt_fields: tuple[str, ...] = ("label",)
    #: Variable names treated as request instances in untyped code.
    request_identifiers: tuple[str, ...] = ("request", "req")
    #: Callee suffixes that constitute algorithm execution.
    execution_sinks: tuple[str, ...] = (
        "SpatialWorkspace.join",
        "BatchExecutor.run",
    )


class Rule:
    """One named check over a :class:`ProjectContext`."""

    id: ClassVar[str] = ""
    title: ClassVar[str] = ""
    #: One-sentence statement of the invariant the rule enforces;
    #: rendered into ``docs/analysis-rules.md``.
    invariant: ClassVar[str] = ""
    #: Why the invariant matters in this codebase.
    rationale: ClassVar[str] = ""
    #: A minimal violating snippet, shown in the rule reference.
    example: ClassVar[str] = ""

    def __init__(self, config: RuleConfig) -> None:
        self.config = config

    def finding(
        self,
        *,
        path: str,
        line: int,
        column: int,
        symbol: str,
        message: str,
    ) -> Finding:
        """A :class:`Finding` stamped with this rule's id."""
        return Finding(
            path=path,
            line=line,
            column=column,
            rule=self.id,
            symbol=symbol,
            message=message,
        )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule that reasons over the whole-program call graph.

    Subclasses implement :meth:`check_project`; the engine hands them
    the project's (lazily built, shared) :class:`CallGraph` so several
    project rules pay for symbol resolution once.
    """

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        return self.check_project(project, project.callgraph())

    def check_project(
        self, project: ProjectContext, graph: "CallGraph"
    ) -> Iterator[Finding]:
        raise NotImplementedError


class UnknownRuleError(ValueError):
    """A ``--select`` named a rule id that doesn't exist."""


_REGISTRY: dict[str, type[Rule]] = {}

_R = TypeVar("_R", bound=type[Rule])


def register_rule(cls: _R) -> _R:
    """Class decorator adding ``cls`` to the global rule registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY and _REGISTRY[cls.id] is not cls:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def registered_rules() -> dict[str, type[Rule]]:
    """Id -> rule class, for every registered rule (sorted by id)."""
    import repro.analysis.rules  # noqa: F401  (registers on import)

    return dict(sorted(_REGISTRY.items()))


def build_rules(
    config: RuleConfig,
    *,
    select: Iterable[str] | None = None,
) -> list[Rule]:
    """Instantiate the active rule set for one run."""
    selected = (
        {name.upper() for name in select} if select is not None else None
    )
    unknown = (selected or set()) - set(registered_rules())
    if unknown:
        raise UnknownRuleError(
            "unknown rule id(s): " + ", ".join(sorted(unknown))
        )
    return [
        cls(config)
        for rule_id, cls in registered_rules().items()
        if selected is None or rule_id in selected
    ]
