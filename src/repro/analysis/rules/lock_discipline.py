"""RPL002 — lock discipline for guarded state.

Scope: every class that assigns ``self._lock``.  Three shapes are
flagged:

* **unlocked access** — a public method (or runtime-invoked dunder
  other than ``__init__``/``__new__``/``__del__``) reads or writes a
  guarded attribute (``_catalog``/``_cache``/``_results``) outside a
  ``with self._lock:`` block;
* **unlocked call** — a lock-assuming private helper (one whose own
  guarded accesses rely on the caller holding the lock) is invoked
  from a context where the lock is not held.  Lock assumptions
  propagate through private callers to a fixpoint, so helper chains
  like ``submit_many -> _resolve`` verify without annotations;
* **deadlock shape** — a public method of the same class is invoked
  inside a ``with self._lock:`` block.  Even with today's reentrant
  lock this couples the public API to the private locking layout; the
  convention is public wrappers lock, private helpers assume.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.analysis.callgraph import CallGraph
from repro.analysis.context import ModuleContext, ProjectContext
from repro.analysis.findings import Finding, Rule

#: Attribute names whose access requires the lock.
GUARDED_ATTRIBUTES = ("_catalog", "_cache", "_results")
#: The lock attribute guarding them.
LOCK_ATTRIBUTE = "_lock"
#: Dunders the runtime only calls before/after the object is shared.
_CONSTRUCTION_METHODS = {"__init__", "__new__", "__del__"}


def _is_self_attr(node: ast.expr, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


@dataclass
class _GuardedAccess:
    attr: str
    line: int
    column: int
    locked: bool


@dataclass
class _SelfCall:
    callee: str
    line: int
    column: int
    locked: bool


@dataclass
class _MethodInfo:
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    accesses: list[_GuardedAccess] = field(default_factory=list)
    calls: list[_SelfCall] = field(default_factory=list)

    @property
    def runtime_public(self) -> bool:
        """Callable from outside without holding the lock."""
        if self.name in _CONSTRUCTION_METHODS:
            return False
        if self.name.startswith("__") and self.name.endswith("__"):
            return True  # runtime-invoked dunder (e.g. __repr__)
        return not self.name.startswith("_")


class LockDisciplineRule(Rule):
    id = "RPL002"
    title = "guarded service state requires the service lock"
    invariant = (
        "In a class that assigns self._lock, guarded attributes "
        "(_catalog/_cache/_results) are only touched under "
        "`with self._lock:`, public "
        "methods never run inside the lock, and lock-assuming private "
        "helpers are never called without it."
    )
    rationale = (
        "The service is one shared object under concurrent clients; "
        "an unlocked catalog read races registration, and a public "
        "method invoked under the lock couples the API surface to the "
        "private locking layout (deadlock on refactor)."
    )
    example = (
        "def lookup(self, name):\n"
        "    return self._catalog.get(name)  # RPL002: guarded state\n"
        "    # read without holding self._lock\n"
    )

    def check(
        self, project: ProjectContext, graph: CallGraph
    ) -> Iterator[Finding]:
        for module in project.sorted_modules():
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef) and self._has_lock(node):
                    yield from self._check_class(module, node)

    def _has_lock(self, cls: ast.ClassDef) -> bool:
        return any(
            isinstance(target, ast.Attribute)
            and _is_self_attr(target, LOCK_ATTRIBUTE)
            for stmt in ast.walk(cls)
            if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            for target in (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
        )

    def _locked(self, module: ModuleContext, node: ast.AST,
                method: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        """Is ``node`` lexically inside ``with self._lock:`` in ``method``?"""
        for ancestor in module.ancestors(node):
            if ancestor is method:
                return False
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False  # nested function: runs later, lock unknown
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    if _is_self_attr(item.context_expr, LOCK_ATTRIBUTE):
                        return True
        return False

    def _collect(
        self, module: ModuleContext, cls: ast.ClassDef
    ) -> dict[str, _MethodInfo]:
        methods: dict[str, _MethodInfo] = {}
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            info = _MethodInfo(name=stmt.name, node=stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) and isinstance(
                    node.value, ast.Name
                ) and node.value.id == "self":
                    if node.attr in GUARDED_ATTRIBUTES:
                        info.accesses.append(
                            _GuardedAccess(
                                attr=node.attr,
                                line=node.lineno,
                                column=node.col_offset,
                                locked=self._locked(module, node, stmt),
                            )
                        )
                if isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "self"
                    ):
                        info.calls.append(
                            _SelfCall(
                                callee=func.attr,
                                line=node.lineno,
                                column=node.col_offset,
                                locked=self._locked(module, node, stmt),
                            )
                        )
            methods[stmt.name] = info
        return methods

    def _check_class(
        self, module: ModuleContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = self._collect(module, cls)
        lock = LOCK_ATTRIBUTE

        # A method *assumes* the lock when it touches guarded state
        # outside any ``with self._lock:`` of its own.  The assumption
        # propagates: whoever calls an assuming method unlocked must
        # itself be entered with the lock held.
        assumes: set[str] = {
            name
            for name, info in methods.items()
            if info.name not in _CONSTRUCTION_METHODS
            and any(not access.locked for access in info.accesses)
        }
        changed = True
        while changed:
            changed = False
            for name, info in methods.items():
                if name in assumes or name in _CONSTRUCTION_METHODS:
                    continue
                if any(
                    call.callee in assumes and not call.locked
                    for call in info.calls
                ):
                    assumes.add(name)
                    changed = True

        for name in sorted(assumes):
            info = methods[name]
            if not info.runtime_public:
                continue
            # Public entry point relying on a lock no caller holds:
            # report each unlocked guarded access (or, when the
            # assumption came from a call chain, the unlocked call).
            reported = False
            for access in info.accesses:
                if not access.locked:
                    reported = True
                    yield self.finding(
                        path=module.display_path,
                        line=access.line,
                        column=access.column,
                        symbol=f"{cls.name}.{name}",
                        message=(
                            f"{cls.name}.{name} touches guarded state "
                            f"self.{access.attr} without holding "
                            f"self.{lock}"
                        ),
                    )
            if not reported:
                for call in info.calls:
                    if call.callee in assumes and not call.locked:
                        yield self.finding(
                            path=module.display_path,
                            line=call.line,
                            column=call.column,
                            symbol=f"{cls.name}.{name}",
                            message=(
                                f"{cls.name}.{name} calls lock-assuming "
                                f"helper self.{call.callee}() without "
                                f"holding self.{lock}"
                            ),
                        )

        # Deadlock shape: a public method invoked while holding the
        # lock (public wrappers lock; private helpers assume).
        for name, info in methods.items():
            for call in info.calls:
                callee = methods.get(call.callee)
                if callee is None or not call.locked:
                    continue
                if not callee.name.startswith("_"):
                    yield self.finding(
                        path=module.display_path,
                        line=call.line,
                        column=call.column,
                        symbol=f"{cls.name}.{name}",
                        message=(
                            f"{cls.name}.{name} calls public method "
                            f"self.{call.callee}() inside a "
                            f"'with self.{lock}:' block (deadlock "
                            "shape; call a private helper instead)"
                        ),
                    )
