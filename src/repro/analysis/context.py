"""Parsed-module and project context handed to every rule.

The engine parses each file exactly once into a :class:`ModuleContext`
(AST, source lines, suppression map, dotted module name) and bundles
them into one :class:`ProjectContext`, so project-wide rules — export
consistency, lock order — can see every module at once
without re-reading anything.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

#: ``# repro: ignore`` or ``# repro: ignore[RPL001,RPL005]``.
_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*ignore\b(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?"
)


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, found by walking up ``__init__.py``s.

    ``src/repro/service/cache.py`` maps to ``repro.service.cache``;
    a loose file outside any package maps to its bare stem.
    """
    parts: list[str] = [] if path.stem == "__init__" else [path.stem]
    directory = path.parent
    while (directory / "__init__.py").is_file():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:  # filesystem root
            break
        directory = parent
    return ".".join(parts) if parts else path.stem


def parse_suppressions(source: str) -> dict[int, frozenset[str] | None]:
    """Map 1-based line number to the rules suppressed on that line.

    ``None`` means every rule is suppressed there (a bare
    ``# repro: ignore``); otherwise the value is the set of rule ids
    named in the bracket list.
    """
    out: dict[int, frozenset[str] | None] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION_RE.search(text)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            out[lineno] = None
        else:
            names = frozenset(
                part.strip().upper()
                for part in rules.split(",")
                if part.strip()
            )
            out[lineno] = names or None
    return out


def own_statements(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements of one scope: ``body`` and its nested blocks.

    Descends into ``if``/``try``/``with``/loop blocks and ``except``
    handlers; a nested def or class is yielded but not entered.
    """
    stack: list[ast.stmt] = list(body)
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        for _, value in ast.iter_fields(stmt):
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.stmt):
                        stack.append(item)
                    elif isinstance(item, ast.excepthandler):
                        stack.extend(item.body)


@dataclass
class ModuleContext:
    """One parsed source file."""

    path: Path
    #: ``path`` relative to the invocation directory, posix-style —
    #: the form findings use.
    display_path: str
    name: str
    source: str
    tree: ast.Module
    suppressions: dict[int, frozenset[str] | None] = field(
        default_factory=dict
    )
    _nodes: list[ast.AST] | None = field(default=None, repr=False)
    _parents: dict[ast.AST, ast.AST] | None = field(
        default=None, repr=False
    )

    @property
    def name_segments(self) -> tuple[str, ...]:
        """The dotted module name, split — handy for scope matching."""
        return tuple(self.name.split("."))

    def nodes(self) -> list[ast.AST]:
        """Every node of the module AST, in ``ast.walk`` order.

        Built once and cached, so the rules share one walk.
        """
        if self._nodes is None:
            self._nodes = list(ast.walk(self.tree))
        return self._nodes

    def parent_map(self) -> dict[ast.AST, ast.AST]:
        """Child-to-parent links over the module AST (built lazily)."""
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            for node in self.nodes():
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> list[ast.AST]:
        """Enclosing nodes of ``node``, innermost first."""
        parents = self.parent_map()
        chain: list[ast.AST] = []
        current = parents.get(node)
        while current is not None:
            chain.append(current)
            current = parents.get(current)
        return chain

    def enclosing_symbol(self, node: ast.AST) -> str:
        """The finding symbol for ``node``.

        The innermost function holding ``node`` (or ``node`` itself),
        as ``Class.method`` for a method; ``<module>`` at module level.
        """
        functions = (ast.FunctionDef, ast.AsyncFunctionDef)
        chain = [node, *self.ancestors(node)]
        for index, current in enumerate(chain):
            if not isinstance(current, functions):
                continue
            owner = next(
                (
                    outer
                    for outer in chain[index + 1:]
                    if isinstance(outer, (ast.ClassDef, *functions))
                ),
                None,
            )
            if isinstance(owner, ast.ClassDef):
                return f"{owner.name}.{current.name}"
            return current.name
        return "<module>"

    def is_suppressed(self, rule: str, line: int) -> bool:
        """True when ``rule`` is silenced on ``line``."""
        if line not in self.suppressions:
            return False
        rules = self.suppressions[line]
        return rules is None or rule.upper() in rules

    def top_level_bindings(self) -> set[str]:
        """Names bound at module scope (defs, classes, imports, assigns).

        Walks into module-level ``if``/``try``/``with``/loop blocks —
        conditional imports still bind — but never into function or
        class bodies.
        """
        bound: set[str] = set()
        for stmt in own_statements(self.tree.body):
            targets: list[ast.expr] = []
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                bound.add(stmt.name)
            elif isinstance(stmt, ast.Import):
                bound.update(
                    alias.asname or alias.name.split(".")[0]
                    for alias in stmt.names
                )
            elif isinstance(stmt, ast.ImportFrom):
                bound.update(
                    alias.asname or alias.name
                    for alias in stmt.names
                    if alias.name != "*"
                )
            elif isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AugAssign, ast.For)):
                # Loop variables bind at module scope too.
                targets = [stmt.target]
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name):
                    bound.add(stmt.target.id)
            elif isinstance(stmt, ast.With):
                # So does ``with ... as name``.
                targets = [
                    item.optional_vars
                    for item in stmt.items
                    if item.optional_vars is not None
                ]
            bound.update(
                node.id
                for target in targets
                for node in ast.walk(target)
                if isinstance(node, ast.Name)
            )
        return bound

    def has_star_import(self) -> bool:
        """True when the module does ``from x import *`` anywhere."""
        return any(
            isinstance(node, ast.ImportFrom)
            and any(alias.name == "*" for alias in node.names)
            for node in self.nodes()
        )

    def dunder_all(self) -> list[tuple[str, int]]:
        """``(name, line)`` entries of every module-level ``__all__``.

        Collects plain assignments and ``+=`` extensions whose value is
        a literal list/tuple of strings; anything dynamic is skipped
        (the rule cannot see through it).
        """
        entries: list[tuple[str, int]] = []
        for stmt in self.tree.body:
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in stmt.targets
            ):
                value = stmt.value
            elif (
                isinstance(stmt, ast.AugAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__all__"
            ):
                value = stmt.value
            if value is None or not isinstance(
                value, (ast.List, ast.Tuple)
            ):
                continue
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    entries.append((element.value, element.lineno))
        return entries


@dataclass
class ProjectContext:
    """Everything one analysis run can see."""

    #: Dotted module name -> parsed module, for every scanned file.
    modules: dict[str, ModuleContext]

    def module(self, name: str) -> ModuleContext | None:
        return self.modules.get(name)

    def sorted_modules(self) -> list[ModuleContext]:
        """Modules in display-path order (stable finding order)."""
        return sorted(
            self.modules.values(), key=lambda m: m.display_path
        )
