"""RPL004 — every vectorized kernel keeps its reference twin honest.

The vectorized filter-phase kernels are only trustworthy because an
element-at-a-time ``*_reference`` formulation stays in-tree and an
equivalence test asserts identical pair sets and counters.  This rule
makes that pairing a checked contract: a function decorated with
``@vectorized_kernel`` (see :mod:`repro.vectorize`) must

* have an importable ``<name>_reference`` twin bound in the same
  module, and
* be named — together with its twin — by at least one test file under
  the configured tests roots, so deleting the equivalence test (or
  renaming the kernel out from under it) fails the lint run rather
  than silently dropping coverage.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from functools import lru_cache
from pathlib import Path

from repro.analysis.callgraph import CallGraph
from repro.analysis.context import ProjectContext
from repro.analysis.findings import Finding, Rule

#: Decorator names that tag a function as a vectorized kernel.
VECTORIZED_DECORATORS = ("vectorized_kernel",)


@lru_cache(maxsize=None)
def _test_sources(roots: tuple[Path, ...]) -> tuple[str, ...]:
    sources: list[str] = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            try:
                sources.append(path.read_text(encoding="utf-8"))
            except OSError:  # pragma: no cover - unreadable test file
                continue
    return tuple(sources)


def _mentions(source: str, name: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", source) is not None


class VectorPairingRule(Rule):
    id = "RPL004"
    title = "vectorized kernels need *_reference twins and equivalence tests"
    invariant = (
        "Every @vectorized_kernel function has a *_reference twin in "
        "the same module and both names appear together in at least "
        "one test under the configured tests roots."
    )
    rationale = (
        "The NumPy fast paths are only trustworthy because each one "
        "is pinned to a scalar reference by an exact-equivalence "
        "test; an unpaired kernel is an optimization with no oracle."
    )
    example = (
        "@vectorized_kernel\n"
        "def orphan_join(lo, hi):  # RPL004: no orphan_join_reference\n"
        "    ...\n"
    )

    def check(
        self, project: ProjectContext, graph: CallGraph
    ) -> Iterator[Finding]:
        tests = _test_sources(project.tests_roots)
        for module in project.sorted_modules():
            bound = module.top_level_bindings()
            for node in module.nodes():
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if not any(
                    _is_tag(graph, module.name, decorator)
                    for decorator in node.decorator_list
                ):
                    continue
                twin = f"{node.name}_reference"
                if twin not in bound:
                    yield self.finding(
                        path=module.display_path,
                        line=node.lineno,
                        column=node.col_offset,
                        symbol=node.name,
                        message=(
                            f"vectorized kernel {node.name} has no "
                            f"importable {twin} twin in {module.name}; "
                            "keep the element-at-a-time formulation "
                            "in-tree as the equivalence baseline"
                        ),
                    )
                    continue
                if project.tests_roots and not any(
                    _mentions(source, node.name)
                    and _mentions(source, twin)
                    for source in tests
                ):
                    yield self.finding(
                        path=module.display_path,
                        line=node.lineno,
                        column=node.col_offset,
                        symbol=node.name,
                        message=(
                            f"no test file references both {node.name} "
                            f"and {twin}; the equivalence suite must "
                            "name the kernel and its reference twin"
                        ),
                    )


def _is_tag(graph: CallGraph, module: str, decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = graph.resolve(module, decorator)
    return (
        name is not None
        and name.rpartition(".")[2] in VECTORIZED_DECORATORS
    )
