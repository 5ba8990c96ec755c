"""RPL006 — export hygiene: ``__all__`` and re-exports stay honest.

Two checks keep the public surface truthful:

* **``__all__`` ⊆ bound names** — every string in a module-level
  ``__all__`` must actually be bound in that module (def, class,
  assignment or import).  A stale entry breaks ``from m import *``
  and misdocuments the API;
* **re-export consistency** — every ``from <scanned module> import
  name`` must name something bound in the target module (or one of
  its submodules).  This is what keeps the top-level ``repro``
  namespace and the subpackage ``__init__``s from drifting as modules
  are refactored underneath them.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.callgraph import CallGraph, import_from_module
from repro.analysis.context import ProjectContext
from repro.analysis.findings import Finding, Rule


class ExportHygieneRule(Rule):
    id = "RPL006"
    title = "__all__ entries and re-exports must resolve"
    invariant = (
        "Every name in a module's __all__ is bound in that module, "
        "and every re-exported name still exists in its source "
        "module."
    )
    rationale = (
        "A stale __all__ entry turns `from repro import *` into an "
        "ImportError at the caller's site, long after the rename that "
        "caused it; resolving exports statically catches the rename "
        "in the same PR."
    )
    example = (
        "__all__ = [\"renamed_long_ago\"]  # RPL006: no such binding\n"
        "def renamed_recently():\n"
        "    ...\n"
    )

    def check(
        self, project: ProjectContext, graph: CallGraph
    ) -> Iterator[Finding]:
        bindings: dict[str, set[str]] = {}
        star: dict[str, bool] = {}
        for name, module in project.modules.items():
            bindings[name] = module.top_level_bindings()
            star[name] = module.has_star_import()

        for module in project.sorted_modules():
            bound = bindings[module.name]
            # Check 1: __all__ subset of bound names.
            if not star[module.name]:
                for export, line in module.dunder_all():
                    if export not in bound:
                        yield self.finding(
                            path=module.display_path,
                            line=line,
                            column=0,
                            symbol=export,
                            message=(
                                f"__all__ lists {export!r} but "
                                f"{module.name} binds no such name"
                            ),
                        )
            # Check 2: imports from scanned modules must resolve.
            for node in module.nodes():
                if not isinstance(node, ast.ImportFrom):
                    continue
                target_name = import_from_module(module, node)
                target = project.module(target_name)
                if target is None or star[target_name]:
                    continue
                target_bound = bindings[target_name]
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    if alias.name in target_bound:
                        continue
                    # Importing a submodule of a package is fine.
                    if f"{target_name}.{alias.name}" in project.modules:
                        continue
                    yield self.finding(
                        path=module.display_path,
                        line=node.lineno,
                        column=node.col_offset,
                        symbol=alias.name,
                        message=(
                            f"stale import: {target_name} does not "
                            f"define {alias.name!r}"
                        ),
                    )
