"""The finding type and the rule base class shared by the lint engine.

A :class:`Finding` is one rule violation at one source location.
Every finding fails the run; the one escape hatch is a per-line
``# repro: ignore[RPL00N]`` comment, applied by the engine before a
finding is reported.  A :class:`Rule` is one named check; the rule
set is the ``RULES`` tuple in :mod:`repro.analysis.rules`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import ClassVar

from repro.analysis.callgraph import CallGraph
from repro.analysis.context import ProjectContext


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    #: Posix path of the offending file (relative to the invocation
    #: directory when possible, so reports are machine-independent).
    path: str
    #: 1-based source line of the violation.
    line: int
    #: 0-based column of the violation.
    column: int
    #: Rule identifier, e.g. ``"RPL001"``.
    rule: str
    #: Stable name of the offending construct (class, function, or
    #: variable).
    symbol: str
    #: Human-readable explanation; not part of the sort order.
    message: str = field(compare=False)

    def render(self) -> str:
        """One-line human-readable form."""
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"error {self.rule} [{self.symbol}] {self.message}"
        )


class Rule:
    """One named check over the project and its call graph."""

    id: ClassVar[str] = ""
    title: ClassVar[str] = ""
    #: One-sentence statement of the invariant the rule enforces;
    #: rendered into ``docs/analysis-rules.md``.
    invariant: ClassVar[str] = ""
    #: Why the invariant matters in this codebase.
    rationale: ClassVar[str] = ""
    #: A minimal violating snippet, shown in the rule reference.
    example: ClassVar[str] = ""

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

    def check(
        self, project: ProjectContext, graph: CallGraph
    ) -> Iterator[Finding]:
        raise NotImplementedError
