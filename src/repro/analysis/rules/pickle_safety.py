"""RPL001 — ``__slots__`` classes must carry explicit pickle support.

The PR 2 bug class: frozen ``__slots__`` value types (``Box``,
``BoxArray``, pages, grids) override ``__setattr__`` to raise, which
breaks Python's default slot-pickling protocol the moment an instance
crosses a process boundary inside a sharded-tier command or reply.
Even for non-frozen slot classes, explicit
state methods keep the wire format deliberate instead of accidental.

A class with a non-empty ``__slots__`` passes when it

* defines both ``__getstate__`` and ``__setstate__`` in its body, or
* lists a known pickle mixin (``SlotPickleMixin`` by default) among
  its bases, or
* inherits from a class in the scanned tree that itself passes.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from repro.analysis.context import ModuleContext, ProjectContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register_rule
from repro.analysis.rules._ast_utils import dotted_name, import_aliases


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


@dataclass
class _ClassInfo:
    module: ModuleContext
    node: ast.ClassDef
    #: Absolute dotted names of the base classes (best effort).
    bases: list[str]
    slots: list[str] | None
    has_state_methods: bool


def _last_segment(name: str) -> str:
    return name.rsplit(".", 1)[-1]


@register_rule
class PickleSafetyRule(Rule):
    id = "RPL001"
    title = "__slots__ classes must define explicit pickle support"
    invariant = (
        "Every class declaring __slots__ also provides pickle support "
        "— __getstate__/__setstate__, __reduce__, or a configured "
        "pickle mixin base — so it survives the process-pool boundary."
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

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        classes: dict[str, _ClassInfo] = {}
        order: list[str] = []
        for module in project.sorted_modules():
            aliases = import_aliases(module.tree)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                bases: list[str] = []
                for base in node.bases:
                    name = dotted_name(base)
                    if name is None:
                        continue
                    head, _, rest = name.partition(".")
                    target = aliases.get(head)
                    if target is not None:
                        name = f"{target}.{rest}" if rest else target
                    bases.append(name)
                info = _ClassInfo(
                    module=module,
                    node=node,
                    bases=bases,
                    slots=_slots_entries(node),
                    has_state_methods=_defines(node, "__getstate__")
                    and _defines(node, "__setstate__"),
                )
                qualified = f"{module.name}.{node.name}"
                classes[qualified] = info
                order.append(qualified)

        mixin_names = set(self.config.pickle_mixins)
        safe_cache: dict[str, bool] = {}

        def is_safe(qualified: str, trail: frozenset[str]) -> bool:
            """Does this class (or an ancestor) provide pickle state?"""
            if qualified in safe_cache:
                return safe_cache[qualified]
            if qualified in trail:  # inheritance cycle; give up safely
                return False
            info = classes[qualified]
            safe = info.has_state_methods
            if not safe:
                for base in info.bases:
                    if _last_segment(base) in mixin_names:
                        safe = True
                        break
                    resolved = _resolve_base(base, info.module, classes)
                    if resolved is not None and is_safe(
                        resolved, trail | {qualified}
                    ):
                        safe = True
                        break
            safe_cache[qualified] = safe
            return safe

        for qualified in order:
            info = classes[qualified]
            if info.slots is None or not info.slots:
                continue
            if is_safe(qualified, frozenset()):
                continue
            yield self.finding(
                path=info.module.display_path,
                line=info.node.lineno,
                column=info.node.col_offset,
                symbol=info.node.name,
                message=(
                    f"class {info.node.name} defines __slots__ "
                    f"{tuple(info.slots)!r} but no __getstate__/"
                    "__setstate__ pair and no pickle mixin base "
                    f"({' or '.join(sorted(mixin_names))}); instances "
                    "will not survive a process boundary"
                ),
            )


def _resolve_base(
    base: str, module: ModuleContext, classes: dict[str, _ClassInfo]
) -> str | None:
    """Find the scanned class a base name refers to, if any."""
    if base in classes:
        return base
    local = f"{module.name}.{base}"
    if local in classes:
        return local
    # ``from x import C`` resolved ``base`` to ``x.C`` already; a bare
    # name that is neither local nor absolute may still match a class
    # with the same trailing segments in a scanned module.
    matches = [
        qualified
        for qualified in classes
        if qualified.endswith(f".{base}")
    ]
    if len(matches) == 1:
        return matches[0]
    return None
