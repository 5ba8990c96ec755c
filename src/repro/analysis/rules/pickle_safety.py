"""RPL001 — ``__slots__`` classes must carry explicit pickle support.

The PR 2 bug class: frozen ``__slots__`` value types (``Box``,
``BoxArray``, pages, grids) override ``__setattr__`` to raise, which
breaks Python's default slot-pickling protocol the moment an instance
crosses a process boundary inside a sharded-tier command or reply.
Even for non-frozen slot classes, explicit
state methods keep the wire format deliberate instead of accidental.

A class with a non-empty ``__slots__`` passes when it

* defines both ``__getstate__`` and ``__setstate__`` in its body, or
* lists a pickle mixin (``SlotPickleMixin``) among its bases, or
* inherits from a class in the scanned tree that itself passes.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.callgraph import CallGraph
from repro.analysis.context import ProjectContext
from repro.analysis.findings import Finding, Rule

#: Base classes that make a ``__slots__`` class pickle-safe.
PICKLE_MIXINS = ("SlotPickleMixin",)


def _slots_entries(node: ast.ClassDef) -> list[str] | None:
    """The names in a class-body ``__slots__`` assignment, if any.

    Returns ``None`` when the class defines no ``__slots__`` at all;
    an empty list for ``__slots__ = ()``.  Dynamic values (not a
    literal tuple/list of strings) conservatively count as non-empty.
    """
    for stmt in node.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not any(
            isinstance(t, ast.Name) and t.id == "__slots__"
            for t in targets
        ):
            continue
        assert value is not None
        if isinstance(value, (ast.Tuple, ast.List)):
            names: list[str] = []
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    names.append(element.value)
                else:
                    names.append("<dynamic>")
            return names
        if isinstance(value, ast.Constant) and isinstance(
            value.value, str
        ):
            return [value.value]
        return ["<dynamic>"]
    return None


def _defines(node: ast.ClassDef, method: str) -> bool:
    return any(
        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and stmt.name == method
        for stmt in node.body
    )


class PickleSafetyRule(Rule):
    id = "RPL001"
    title = "__slots__ classes must define explicit pickle support"
    invariant = (
        "Every class declaring __slots__ also provides pickle support "
        "— __getstate__/__setstate__ or a SlotPickleMixin base, "
        "directly or through a scanned base class — so it survives "
        "the process-pool boundary."
    )
    rationale = (
        "Batch execution ships datasets and reports through "
        "multiprocessing pickling; a slotted class without explicit "
        "state hooks pickles to an empty object and the worker crashes "
        "or silently computes on defaults (the PR 2 frozen-slots bug)."
    )
    example = (
        "class FrozenPoint:\n"
        "    __slots__ = (\"x\", \"y\")  # RPL001: no __getstate__/\n"
        "    # __setstate__ and no pickle mixin base\n"
    )

    def check(
        self, project: ProjectContext, graph: CallGraph
    ) -> Iterator[Finding]:
        for module in project.sorted_modules():
            for node in module.nodes():
                if not isinstance(node, ast.ClassDef):
                    continue
                slots = _slots_entries(node)
                if not slots or _pickle_safe(
                    graph, module.name, node, frozenset()
                ):
                    continue
                yield self.finding(
                    path=module.display_path,
                    line=node.lineno,
                    column=node.col_offset,
                    symbol=node.name,
                    message=(
                        f"class {node.name} defines __slots__ "
                        f"{tuple(slots)!r} but no __getstate__/"
                        "__setstate__ pair and no pickle mixin base "
                        f"({' or '.join(sorted(PICKLE_MIXINS))}); "
                        "instances will not survive a process boundary"
                    ),
                )


def _pickle_safe(
    graph: CallGraph,
    module: str,
    node: ast.ClassDef,
    trail: frozenset[str],
) -> bool:
    """Does this class (or a scanned ancestor) provide pickle state?"""
    if _defines(node, "__getstate__") and _defines(node, "__setstate__"):
        return True
    for base in node.bases:
        name = graph.resolve(module, base)
        if name is not None and name.rpartition(".")[2] in PICKLE_MIXINS:
            return True
        parent = graph.project_class(module, base)
        if parent is not None and parent not in trail:
            info = graph.classes[parent]
            if _pickle_safe(graph, info.module, info.node, trail | {parent}):
                return True
    return False
