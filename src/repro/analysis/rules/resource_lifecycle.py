"""RPL008 — shared-memory resources must be released on every path.

For each resource factory in ``RESOURCE_FACTORIES`` (``SharedMemory``,
``SharedDatasetPool``), every acquisition must be *settled* on every
control-flow path out of the acquiring function — exception paths
included:

* a call to one of the factory's release methods on the acquired
  variable (``shm.close()``, ``shm.unlink()``, ``pool.close()``);
* an **escape** — the bare variable is returned/yielded, stored into
  an attribute or container, or passed to another call (ownership
  moved; the receiver's obligations are its own).  Derived values
  (``shm.buf``) do not count as escapes;
* acquisition directly as a ``with`` context manager.

Paths are walked over the function's CFG (:mod:`repro.analysis.cfg`),
so ``shm = SharedMemory(...)`` followed by a computation that can
raise *before* the segment is stored or closed is flagged even though
the happy path looks fine — exactly the publish/attach windows the
shared-memory pool has to keep closed, because a leaked segment
persists in ``/dev/shm`` after the process dies.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from repro.analysis.callgraph import CallGraph
from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.context import (
    ModuleContext,
    ProjectContext,
    own_statements,
)
from repro.analysis.findings import Finding, Rule

#: Resource-factory callees (last dotted segment) mapped to the method
#: names that settle the obligation.
RESOURCE_FACTORIES: dict[str, tuple[str, ...]] = {
    "SharedMemory": ("close", "unlink"),
    "SharedDatasetPool": ("close",),
}


@dataclass
class _Acquisition:
    variable: str
    factory: str
    releases: tuple[str, ...]
    stmt: ast.stmt
    line: int
    column: int


class ResourceLifecycleRule(Rule):
    id = "RPL008"
    title = "acquired shared-memory resources reach a release on all paths"
    invariant = (
        "Every variable bound from a resource factory (SharedMemory, "
        "SharedDatasetPool) reaches a release method, escapes to "
        "another owner, or is managed by `with` on every CFG path out "
        "of the function, including exception edges."
    )
    rationale = (
        "POSIX shared-memory segments outlive the process: a segment "
        "acquired and then dropped on an exception path stays mapped "
        "in /dev/shm until reboot, and the refcounted pool double-"
        "frees if registration and cleanup disagree about ownership."
    )
    example = (
        "def publish(data):\n"
        "    shm = SharedMemory(create=True, size=len(data))\n"
        "    shm.buf[:] = data      # raises -> segment leaked: RPL008\n"
        "    REGISTRY.append(shm)\n"
    )

    def check(
        self, project: ProjectContext, graph: CallGraph
    ) -> Iterator[Finding]:
        for module in project.sorted_modules():
            for node in module.nodes():
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    yield from self._check_function(graph, module, node)

    # ------------------------------------------------------------------
    def _check_function(
        self,
        graph: CallGraph,
        module: ModuleContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        acquisitions: list[_Acquisition] = []
        discarded: list[tuple[str, ast.stmt]] = []
        for stmt in own_statements(func.body):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                value = stmt.value
            elif isinstance(stmt, ast.Expr):
                value = stmt.value
            else:
                continue
            if not isinstance(value, ast.Call):
                continue
            factory = graph.called_name(module.name, value)
            if factory is None or factory not in RESOURCE_FACTORIES:
                continue
            if isinstance(stmt, ast.Assign):
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    acquisitions.append(
                        _Acquisition(
                            variable=target.id,
                            factory=factory,
                            releases=RESOURCE_FACTORIES[factory],
                            stmt=stmt,
                            line=stmt.lineno,
                            column=stmt.col_offset,
                        )
                    )
            elif isinstance(stmt, ast.Expr):
                discarded.append((factory, stmt))

        for factory, stmt in discarded:
            yield self.finding(
                path=module.display_path,
                line=stmt.lineno,
                column=stmt.col_offset,
                symbol=module.enclosing_symbol(func),
                message=(
                    f"{factory}(...) result is discarded — the "
                    "resource can never be released; bind it and "
                    "release it, or use `with`"
                ),
            )

        if not acquisitions:
            return
        cfg = build_cfg(func)
        for acq in acquisitions:
            leak = self._first_leak(cfg, acq, module.parent_map())
            if leak is None:
                continue
            via_exception, at_line = leak
            route = (
                f"an exception path (statement at line {at_line} can "
                "raise first)"
                if via_exception
                else "a normal path"
            )
            yield self.finding(
                path=module.display_path,
                line=acq.line,
                column=acq.column,
                symbol=module.enclosing_symbol(func),
                message=(
                    f"{acq.variable} = {acq.factory}(...) does not "
                    f"reach {_release_names(acq.releases)} on {route}; "
                    "release in a finally block or hand ownership off "
                    "before anything can raise"
                ),
            )

    def _first_leak(
        self,
        cfg: CFG,
        acq: _Acquisition,
        parents: dict[ast.AST, ast.AST],
    ) -> tuple[bool, int] | None:
        """(via_exception, escaping line) of the first leaking path.

        BFS from the acquisition's normal successors (if the factory
        call itself raises, the name was never bound); a node that
        settles the obligation is not expanded, and reaching EXIT or
        RAISE otherwise is a leak.
        """
        node = cfg.node_for(acq.stmt)
        if node is None:
            return None
        frontier: list[tuple[int, bool, int]] = [
            (succ, False, acq.line) for succ in node.normal
        ]
        seen: set[tuple[int, bool]] = set()
        while frontier:
            index, via_exc, last_line = frontier.pop(0)
            if (index, via_exc) in seen:
                continue
            seen.add((index, via_exc))
            current = cfg.nodes[index]
            if current.kind == "exit":
                return (via_exc, last_line)
            if current.kind == "raise":
                return (True, last_line)
            if current.stmt is not None and _settles(
                current.stmt, acq, parents
            ):
                continue
            line = (
                current.stmt.lineno
                if current.stmt is not None
                else last_line
            )
            for succ in current.normal:
                frontier.append((succ, via_exc, line))
            for succ in current.exceptional:
                frontier.append((succ, True, line))
        return None


# ----------------------------------------------------------------------
# Statement predicates
# ----------------------------------------------------------------------
def _settles(
    stmt: ast.stmt, acq: _Acquisition, parents: dict[ast.AST, ast.AST]
) -> bool:
    """Does ``stmt`` settle the obligation for ``acq.variable``?"""
    variable = acq.variable
    # Rebinding ends tracking (the old value's fate was decided by
    # whatever produced the rebinding — commonly a second acquire,
    # which gets its own analysis).
    if isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == variable
        for t in stmt.targets
    ):
        return True
    if (
        isinstance(stmt, ast.Delete)
        and any(
            isinstance(t, ast.Name) and t.id == variable
            for t in stmt.targets
        )
    ):
        return True
    for node in ast.walk(stmt):
        # v.close() / v.unlink() / v.release()
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in acq.releases
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == variable
        ):
            return True
        if _is_bare_use(node, variable, parents) and _escapes(
            node, parents
        ):
            return True
        # A nested def capturing the variable may release it later;
        # trust the closure rather than flag an un-analyzable path.
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ) and any(
            isinstance(inner, ast.Name) and inner.id == variable
            for inner in ast.walk(node)
        ):
            return True
    return False


def _is_bare_use(
    node: ast.AST, variable: str, parents: dict[ast.AST, ast.AST]
) -> bool:
    """A Load of the variable itself, not of a derived attribute.

    ``shm`` in ``register(shm)`` is bare; the ``shm`` of ``shm.buf``
    is not — handing out a view is not handing out ownership.
    """
    if not (
        isinstance(node, ast.Name)
        and node.id == variable
        and isinstance(node.ctx, ast.Load)
    ):
        return False
    parent = parents.get(node)
    return not (
        isinstance(parent, ast.Attribute) and parent.value is node
    )


def _escapes(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> bool:
    """Is this bare use one that moves ownership elsewhere?

    Returned/yielded, passed as a call argument, or stored into an
    attribute/subscript/container — anything that makes the value
    reachable after the statement.  Reads that merely inspect it
    (``if v is None``) keep the obligation local.
    """
    current: ast.AST | None = node
    while current is not None:
        parent = parents.get(current)
        if parent is None:
            return False
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(parent, ast.Call) and current is not parent.func:
            return True
        if isinstance(parent, ast.keyword):
            return True
        if isinstance(parent, ast.Assign):
            if current is parent.value or any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in parent.targets
            ):
                return any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in parent.targets
                )
            return False
        if isinstance(parent, ast.withitem) and parent.context_expr is current:
            return True  # `with shm:` — the context manager closes it
        if isinstance(parent, (ast.Compare, ast.BoolOp, ast.UnaryOp)):
            return False
        current = parent
    return False


def _release_names(releases: tuple[str, ...]) -> str:
    return "/".join(f"{name}()" for name in releases)
