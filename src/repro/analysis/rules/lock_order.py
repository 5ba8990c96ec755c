"""RPL007 — whole-program lock-order analysis.

Scope: modules whose dotted name contains one of the configured
``lock_order_segments`` (the service and storage layers here).  The
rule builds a *lock-acquisition graph* over every ``threading`` lock
those modules define: an edge ``L1 -> L2`` means some execution
acquires ``L2`` while holding ``L1`` — either lexically (nested
``with`` blocks) or through a call chain (``with self._lock:``
calling a helper that takes ``self._query_lock``).  Two shapes are
flagged:

* **ordering cycle** — two locks each acquired while the other is
  held (the classic AB/BA deadlock), or a non-reentrant lock
  re-acquired under itself through any call path;
* **blocking call under a lock** — a call that suffix-matches
  ``lock_blocking_targets`` (the batch executor) made while any lock
  is held: the executor runs whole cold joins and can take seconds, so
  holding a service lock across it serializes every other client.

Call chains resolve through the project call graph, so the edge
``_lock -> _query_lock`` is found even when the inner acquisition
lives three private helpers away.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from repro.analysis.callgraph import (
    CallGraph,
    strongly_connected_components,
)
from repro.analysis.context import ModuleContext, ProjectContext
from repro.analysis.findings import Finding
from repro.analysis.registry import ProjectRule, register_rule

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


@register_rule
class LockOrderRule(ProjectRule):
    id = "RPL007"
    title = "lock acquisition order must be acyclic and non-blocking"
    invariant = (
        "Across the service and storage layers, the lock-acquisition "
        "graph is acyclic (including through call chains), and no "
        "thread calls into the batch executor while holding a lock."
    )
    rationale = (
        "The service tier holds `_lock` around catalog/cache state and "
        "`_query_lock` around index builds; an AB/BA ordering between "
        "them deadlocks under concurrent clients, and executor calls "
        "under a lock serialize every other request behind "
        "multi-second cold joins."
    )
    example = (
        "def submit(self):\n"
        "    with self._lock:\n"
        "        return self._executor.run(requests)  # RPL007\n"
    )

    def check_project(
        self, project: ProjectContext, graph: CallGraph
    ) -> Iterator[Finding]:
        modules = [
            module
            for module in project.sorted_modules()
            if any(
                segment in module.name_segments
                for segment in self.config.lock_order_segments
            )
        ]
        if not modules:
            return
        locks = self._collect_locks(modules)
        if not locks:
            # Still look for blocking calls? Without locks nothing can
            # be held, so there is nothing to flag.
            return
        acquires = self._direct_acquires(modules, graph, locks)
        transitive = self._transitive_acquires(graph, acquires)
        edges, blocking = self._collect_edges(
            modules, graph, locks, transitive
        )
        yield from self._flag_blocking(blocking)
        yield from self._flag_cycles(locks, edges)

    # ------------------------------------------------------------------
    # Lock definitions
    # ------------------------------------------------------------------
    def _collect_locks(
        self, modules: list[ModuleContext]
    ) -> dict[str, dict[str, _LockDef]]:
        """Per module: acquisition-spelling -> lock definition.

        Spellings are ``Class.attr`` for ``self.attr`` locks (looked up
        with the enclosing class) and bare names for module-level
        locks.
        """
        defs: dict[str, dict[str, _LockDef]] = {}
        for module in modules:
            local: dict[str, _LockDef] = {}
            for stmt in module.tree.body:
                if isinstance(stmt, ast.Assign) and isinstance(
                    stmt.value, ast.Call
                ):
                    factory = _factory_name(stmt.value)
                    if factory is None:
                        continue
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            local[target.id] = _LockDef(
                                key=f"{module.name}.{target.id}",
                                label=target.id,
                                reentrant=factory in _REENTRANT,
                            )
                elif isinstance(stmt, ast.ClassDef):
                    for node in ast.walk(stmt):
                        if not (
                            isinstance(node, ast.Assign)
                            and isinstance(node.value, ast.Call)
                        ):
                            continue
                        factory = _factory_name(node.value)
                        if factory is None:
                            continue
                        for target in node.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                spelling = f"{stmt.name}.{target.attr}"
                                local[spelling] = _LockDef(
                                    key=(
                                        f"{module.name}."
                                        f"{stmt.name}.{target.attr}"
                                    ),
                                    label=f"self.{target.attr}",
                                    reentrant=factory in _REENTRANT,
                                )
            if local:
                defs[module.name] = local
        return defs

    def _lock_for(
        self,
        locks: dict[str, dict[str, _LockDef]],
        module: str,
        class_name: str | None,
        expr: ast.expr,
    ) -> _LockDef | None:
        """The lock a ``with`` item acquires, if it is one we track."""
        local = locks.get(module)
        if local is None:
            return None
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and class_name is not None
        ):
            return local.get(f"{class_name}.{expr.attr}")
        if isinstance(expr, ast.Name):
            return local.get(expr.id)
        return None

    # ------------------------------------------------------------------
    # Acquisition sets and edges
    # ------------------------------------------------------------------
    def _direct_acquires(
        self,
        modules: list[ModuleContext],
        graph: CallGraph,
        locks: dict[str, dict[str, _LockDef]],
    ) -> dict[str, set[str]]:
        """Function qualname -> lock keys it acquires in its own body."""
        acquires: dict[str, set[str]] = {}
        for module in modules:
            for info in graph.functions_in(module.name):
                taken: set[str] = set()
                for node in ast.walk(info.node):
                    if isinstance(node, (ast.With, ast.AsyncWith)):
                        for item in node.items:
                            lock = self._lock_for(
                                locks,
                                module.name,
                                info.class_name,
                                item.context_expr,
                            )
                            if lock is not None:
                                taken.add(lock.key)
                if taken:
                    acquires[info.qualname] = taken
        return acquires

    def _transitive_acquires(
        self, graph: CallGraph, direct: dict[str, set[str]]
    ) -> dict[str, set[str]]:
        """Locks a call to each function may end up acquiring."""
        transitive: dict[str, set[str]] = {}
        for qualname in graph.functions:
            taken = set(direct.get(qualname, ()))
            for callee in graph.closure(qualname):
                taken |= direct.get(callee, set())
            if taken:
                transitive[qualname] = taken
        return transitive

    def _collect_edges(
        self,
        modules: list[ModuleContext],
        graph: CallGraph,
        locks: dict[str, dict[str, _LockDef]],
        transitive: dict[str, set[str]],
    ) -> tuple[list[_Edge], list[_Edge]]:
        """Acquisition edges plus blocking-call pseudo-edges."""
        edges: list[_Edge] = []
        blocking: list[_Edge] = []
        for module in modules:
            for info in graph.functions_in(module.name):
                self._walk_function(
                    module,
                    graph,
                    locks,
                    transitive,
                    info.qualname,
                    info.class_name,
                    info.display,
                    edges,
                    blocking,
                )
        return edges, blocking

    def _walk_function(
        self,
        module: ModuleContext,
        graph: CallGraph,
        locks: dict[str, dict[str, _LockDef]],
        transitive: dict[str, set[str]],
        qualname: str,
        class_name: str | None,
        symbol: str,
        edges: list[_Edge],
        blocking: list[_Edge],
    ) -> None:
        info = graph.functions[qualname]

        def walk(node: ast.AST, held: tuple[_LockDef, ...]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue  # nested defs run later, lock state unknown
                inner = held
                if isinstance(child, (ast.With, ast.AsyncWith)):
                    for item in child.items:
                        lock = self._lock_for(
                            locks,
                            module.name,
                            class_name,
                            item.context_expr,
                        )
                        if lock is None:
                            continue
                        for holder in inner:
                            edges.append(
                                _Edge(
                                    held=holder.key,
                                    acquired=lock.key,
                                    path=module.display_path,
                                    line=child.lineno,
                                    column=child.col_offset,
                                    symbol=symbol,
                                    via="",
                                )
                            )
                        inner = (*inner, lock)
                elif isinstance(child, ast.Call) and held:
                    self._check_call(
                        module,
                        graph,
                        transitive,
                        qualname,
                        symbol,
                        child,
                        held,
                        edges,
                        blocking,
                    )
                walk(child, inner)

        walk(info.node, ())

    def _check_call(
        self,
        module: ModuleContext,
        graph: CallGraph,
        transitive: dict[str, set[str]],
        qualname: str,
        symbol: str,
        call: ast.Call,
        held: tuple[_LockDef, ...],
        edges: list[_Edge],
        blocking: list[_Edge],
    ) -> None:
        site = graph.site_at(qualname, call.lineno, call.col_offset)
        if site is None:
            return
        if _matches_suffix(site.callee, self.config.lock_blocking_targets):
            blocking.append(
                _Edge(
                    held=held[-1].key,
                    acquired="",
                    path=module.display_path,
                    line=call.lineno,
                    column=call.col_offset,
                    symbol=symbol,
                    via=site.callee,
                )
            )
            return
        if not site.resolved or site.constructor:
            return
        # Blocking reached through a project helper under the lock.
        for target in (site.callee, *graph.closure(site.callee)):
            for inner_site in graph.calls.get(target, ()):
                if _matches_suffix(
                    inner_site.callee, self.config.lock_blocking_targets
                ):
                    blocking.append(
                        _Edge(
                            held=held[-1].key,
                            acquired="",
                            path=module.display_path,
                            line=call.lineno,
                            column=call.col_offset,
                            symbol=symbol,
                            via=inner_site.callee,
                        )
                    )
                    break
        for acquired in sorted(transitive.get(site.callee, ())):
            for holder in held:
                edges.append(
                    _Edge(
                        held=holder.key,
                        acquired=acquired,
                        path=module.display_path,
                        line=call.lineno,
                        column=call.col_offset,
                        symbol=symbol,
                        via=site.callee,
                    )
                )

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
        adjacency: dict[str, set[str]] = {
            key: set() for key in defs_by_key
        }
        for edge in edges:
            adjacency.setdefault(edge.held, set()).add(edge.acquired)
        in_cycle: set[str] = set()
        for component in strongly_connected_components(adjacency):
            if len(component) > 1:
                in_cycle |= component
        reported: set[tuple[str, str, str, int]] = set()
        for edge in edges:
            self_loop = edge.held == edge.acquired
            if self_loop:
                lock = defs_by_key.get(edge.held)
                if lock is not None and lock.reentrant:
                    continue
            elif not (
                edge.held in in_cycle and edge.acquired in in_cycle
            ):
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


def _factory_name(call: ast.Call) -> str | None:
    """The lock factory a call invokes, if any (last dotted segment)."""
    func = call.func
    name = (
        func.id
        if isinstance(func, ast.Name)
        else func.attr
        if isinstance(func, ast.Attribute)
        else None
    )
    return name if name in _LOCK_FACTORIES else None


def _matches_suffix(callee: str, targets: tuple[str, ...]) -> bool:
    """Dotted-suffix match: ``a.b.C.run`` matches target ``C.run``."""
    parts = callee.split(".")
    for target in targets:
        tparts = target.split(".")
        if len(tparts) <= len(parts) and parts[-len(tparts):] == tparts:
            return True
    return False
