"""RPL007 — whole-program lock-order analysis.

The rule builds a *lock-acquisition graph* over every ``threading``
lock the scanned modules define: an edge ``L1 -> L2`` means some execution
acquires ``L2`` while holding ``L1`` — either lexically (nested
``with`` blocks) or through a call chain (``with self._lock:``
calling ``self._queries.forget()``, which takes the query workspace's
lock).  Two shapes are flagged:

* **ordering cycle** — two locks each acquired while the other is
  held (the classic AB/BA deadlock), or a non-reentrant lock
  re-acquired under itself through any call path;
* **blocking call under a lock** — a call that suffix-matches
  ``BLOCKING_TARGETS`` (the batch executor) made while any lock
  is held: the executor runs whole cold joins and can take seconds, so
  holding a service lock across it serializes every other client.

Call chains resolve through the project call graph, so the edge
``_lock -> QueryWorkspace._lock`` is found even when the inner
acquisition lives three private helpers away.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial

from repro.analysis.callgraph import CallGraph, FunctionInfo, matches_suffix
from repro.analysis.context import ProjectContext
from repro.analysis.findings import Finding, Rule

#: Callee suffixes a thread must never invoke while holding a lock.
BLOCKING_TARGETS = ("BatchExecutor.run",)

#: ``threading`` constructors that create a lock-like object.
_LOCK_FACTORIES = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
}
#: Of those, the ones a thread may safely re-acquire.
_REENTRANT = {"RLock"}


@dataclass(frozen=True)
class _LockDef:
    """One lock: where it lives and whether it is reentrant."""

    key: str  # "module.Class.attr" or "module.name"
    label: str  # short human name ("self._lock", "_REGISTRY_LOCK")
    reentrant: bool


@dataclass(frozen=True)
class _Edge:
    """``held`` was held when ``acquired`` was taken at this site."""

    held: str
    acquired: str
    path: str
    line: int
    column: int
    symbol: str
    via: str  # "" for lexical nesting, else the callee chain note


class LockOrderRule(Rule):
    id = "RPL007"
    title = "lock acquisition order must be acyclic and non-blocking"
    invariant = (
        "Across every module that defines a lock, the lock-acquisition "
        "graph is acyclic (including through call chains), and no "
        "thread calls into the batch executor while holding a lock."
    )
    rationale = (
        "The service tier holds `_lock` around catalog/cache state and "
        "the query workspace's `_lock` around index builds; an AB/BA "
        "ordering between them deadlocks under concurrent clients, and "
        "executor calls under a lock serialize every other request "
        "behind multi-second cold joins."
    )
    example = (
        "def submit(self):\n"
        "    with self._lock:\n"
        "        return self._executor.run(requests)  # RPL007\n"
    )

    def check(
        self, project: ProjectContext, graph: CallGraph
    ) -> Iterator[Finding]:
        locks = self._collect_locks(project, graph)
        # Without locks nothing can be held, so there is nothing to flag.
        if not locks:
            return
        functions = [
            (module.display_path, info, partial(_lock_for, local, info))
            for module in project.sorted_modules()
            if (local := locks.get(module.name)) is not None
            for info in graph.functions_in(module.name)
        ]
        # Function qualname -> lock keys its body takes.  ``ast.walk``
        # counts nested defs too, as the call graph attributes their
        # calls to the enclosing function.
        taken = {
            info.qualname: {
                lock.key
                for node in ast.walk(info.node)
                if isinstance(node, (ast.With, ast.AsyncWith))
                for item in node.items
                if (lock := lock_of(item.context_expr)) is not None
            }
            for _, info, lock_of in functions
        }
        edges: list[_Edge] = []
        blocking: list[_Edge] = []
        for path, info, lock_of in functions:
            for node, held, lock in _held_sites(info.node, lock_of):
                line, column = node.lineno, node.col_offset
                at = (path, line, column, info.display)
                if lock is not None:
                    edges.extend(
                        _Edge(holder.key, lock.key, *at, "")
                        for holder in held
                    )
                    continue
                site = graph.site_at(info.qualname, line, column)
                if site is None:
                    continue
                if matches_suffix(site.callee, BLOCKING_TARGETS):
                    blocking.append(
                        _Edge(held[-1].key, "", *at, site.callee)
                    )
                    continue
                if not site.resolved or site.constructor:
                    continue
                # One chain answers both questions: which locks the
                # call may take, and whether it reaches the executor.
                chain = (site.callee, *sorted(graph.closure(site.callee)))
                blocker = next(
                    (
                        inner.callee
                        for fn in chain
                        for inner in graph.calls.get(fn, ())
                        if matches_suffix(inner.callee, BLOCKING_TARGETS)
                    ),
                    None,
                )
                if blocker is not None:
                    blocking.append(_Edge(held[-1].key, "", *at, blocker))
                acquired = {key for fn in chain for key in taken.get(fn, ())}
                edges.extend(
                    _Edge(holder.key, key, *at, site.callee)
                    for key in sorted(acquired)
                    for holder in held
                )
        yield from self._flag_blocking(blocking)
        yield from self._flag_cycles(locks, edges)

    # ------------------------------------------------------------------
    # Lock definitions
    # ------------------------------------------------------------------
    def _collect_locks(
        self, project: ProjectContext, graph: CallGraph
    ) -> dict[str, dict[str, _LockDef]]:
        """Per module: acquisition-spelling -> lock definition.

        Spellings are ``Class.attr`` for ``self.attr`` locks (looked up
        with the enclosing class) and bare names for module-level
        locks.
        """
        defs: dict[str, dict[str, _LockDef]] = {}
        for module in project.sorted_modules():
            local: dict[str, _LockDef] = {}
            for stmt in module.tree.body:
                # Module-level assignments bind bare names; anywhere in
                # a class body, ``self.attr`` assignments bind locks.
                owner = stmt.name if isinstance(stmt, ast.ClassDef) else None
                for node in ast.walk(stmt) if owner else (stmt,):
                    if not (
                        isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Call)
                    ):
                        continue
                    factory = graph.called_name(module.name, node.value)
                    if factory not in _LOCK_FACTORIES:
                        continue
                    reentrant = factory in _REENTRANT
                    for target in node.targets:
                        if owner is None and isinstance(target, ast.Name):
                            local[target.id] = _LockDef(
                                key=f"{module.name}.{target.id}",
                                label=target.id,
                                reentrant=reentrant,
                            )
                        elif (
                            owner is not None
                            and isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            spelling = f"{owner}.{target.attr}"
                            local[spelling] = _LockDef(
                                key=f"{module.name}.{spelling}",
                                label=f"self.{target.attr}",
                                reentrant=reentrant,
                            )
            if local:
                defs[module.name] = local
        return defs

    # ------------------------------------------------------------------
    # Findings
    # ------------------------------------------------------------------
    def _flag_blocking(
        self, blocking: list[_Edge]
    ) -> Iterator[Finding]:
        seen: set[tuple[str, int, str]] = set()
        for edge in blocking:
            key = (edge.path, edge.line, edge.via)
            if key in seen:
                continue
            seen.add(key)
            held_name = edge.held.rsplit(".", 1)[-1]
            yield self.finding(
                path=edge.path,
                line=edge.line,
                column=edge.column,
                symbol=edge.symbol,
                message=(
                    f"{edge.symbol} calls blocking target "
                    f"{edge.via} while holding lock {held_name}; "
                    "release the lock before calling the executor"
                ),
            )

    def _flag_cycles(
        self,
        locks: dict[str, dict[str, _LockDef]],
        edges: list[_Edge],
    ) -> Iterator[Finding]:
        defs_by_key = {
            lock.key: lock
            for local in locks.values()
            for lock in local.values()
        }
        adjacency: dict[str, set[str]] = {}
        for edge in edges:
            adjacency.setdefault(edge.held, set()).add(edge.acquired)
        reachable: dict[str, set[str]] = {}

        def reaches(start: str) -> set[str]:
            """Every lock acquired, transitively, while ``start`` is held."""
            if start not in reachable:
                seen: set[str] = set()
                stack = [start]
                while stack:
                    for lock in adjacency.get(stack.pop(), ()):
                        if lock not in seen:
                            seen.add(lock)
                            stack.append(lock)
                reachable[start] = seen
            return reachable[start]

        reported: set[tuple[str, str, str, int]] = set()
        for edge in edges:
            self_loop = edge.held == edge.acquired
            if self_loop:
                lock = defs_by_key.get(edge.held)
                if lock is not None and lock.reentrant:
                    continue
            elif edge.held not in reaches(edge.acquired):
                # An edge a -> b is on a cycle when b leads back to a.
                continue
            key = (edge.held, edge.acquired, edge.path, edge.line)
            if key in reported:
                continue
            reported.add(key)
            held_name = edge.held.rsplit(".", 1)[-1]
            acquired_name = edge.acquired.rsplit(".", 1)[-1]
            via = f" via {edge.via}" if edge.via else ""
            if self_loop:
                message = (
                    f"{edge.symbol} re-acquires non-reentrant lock "
                    f"{held_name}{via} while already holding it "
                    "(self-deadlock)"
                )
            else:
                message = (
                    f"{edge.symbol} acquires {acquired_name} while "
                    f"holding {held_name}{via}, and the reverse order "
                    "also occurs (deadlock cycle); pick one global "
                    "order"
                )
            yield self.finding(
                path=edge.path,
                line=edge.line,
                column=edge.column,
                symbol=edge.symbol,
                message=message,
            )


def _lock_for(
    local: dict[str, _LockDef], info: FunctionInfo, expr: ast.expr
) -> _LockDef | None:
    """The lock a ``with`` item in ``info`` acquires, if we track it."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and info.class_name is not None
    ):
        return local.get(f"{info.class_name}.{expr.attr}")
    if isinstance(expr, ast.Name):
        return local.get(expr.id)
    return None


def _held_sites(
    node: ast.AST,
    lock_of: Callable[[ast.expr], _LockDef | None],
    held: tuple[_LockDef, ...] = (),
) -> Iterator[
    tuple[ast.stmt | ast.expr, tuple[_LockDef, ...], _LockDef | None]
]:
    """Lock acquisitions and calls under a lock, in source order.

    Yields ``(with_node, held, lock)`` for each tracked ``with`` item
    and ``(call, held, None)`` for each call made while ``held`` is
    non-empty.  Nested defs are skipped: they run later, with a lock
    state this walk cannot know.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        inner = held
        if isinstance(child, (ast.With, ast.AsyncWith)):
            for item in child.items:
                lock = lock_of(item.context_expr)
                if lock is not None:
                    yield child, inner, lock
                    inner = (*inner, lock)
        elif isinstance(child, ast.Call) and held:
            yield child, held, None
        yield from _held_sites(child, lock_of, inner)
