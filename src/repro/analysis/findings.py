"""The finding type shared by the whole lint engine.

A :class:`Finding` is one rule violation at one source location.
Every finding fails the run; the one escape hatch is a per-line
``# repro: ignore[RPL00N]`` comment, applied by the engine before a
finding is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
