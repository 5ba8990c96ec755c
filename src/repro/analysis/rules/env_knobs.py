"""RPL005 — no module reads or writes a ``REPRO_*`` environment variable.

The library is configured through constructor arguments and module
constants only: a hidden environment knob changes answers or timings
without showing up at any call site, and a test that flips one tests a
configuration no caller uses.  Every ``REPRO_*`` access is a finding,
whatever the module.

Flagged shapes, whenever the name argument/key is a string literal
starting with ``ENV_PREFIX``:

* ``os.environ["REPRO_X"]`` (read or write) and slice variants;
* ``os.environ.get/setdefault/pop("REPRO_X", ...)``;
* ``os.getenv("REPRO_X", ...)`` (and ``from os import getenv``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.callgraph import CallGraph
from repro.analysis.context import ProjectContext
from repro.analysis.findings import Finding, Rule

#: Environment-variable prefix no module may read or write.
ENV_PREFIX = "REPRO_"

_ENVIRON_METHODS = {"get", "setdefault", "pop"}


class EnvKnobRule(Rule):
    id = "RPL005"
    title = "no REPRO_* environment variables"
    invariant = (
        "No module reads or writes a REPRO_*-prefixed environment "
        "variable; configuration is constructor arguments and module "
        "constants."
    )
    rationale = (
        "An environment knob changes answers or timings without "
        "appearing at any call site, so a run can no longer be "
        "reproduced from its code and arguments alone."
    )
    example = (
        "import os\n"
        "limit = os.environ.get(\"REPRO_CACHE_MB\")  # RPL005: make it\n"
        "# a constructor argument or a module constant\n"
    )

    def check(
        self, project: ProjectContext, graph: CallGraph
    ) -> Iterator[Finding]:
        for module in project.sorted_modules():
            for node in module.nodes():
                name = _env_access(graph, module.name, node)
                if name is None:
                    continue
                yield self.finding(
                    path=module.display_path,
                    line=node.lineno,
                    column=node.col_offset,
                    symbol=module.enclosing_symbol(node),
                    message=(
                        f"environment access of {name!r}; make it a "
                        "constructor argument or a module constant"
                    ),
                )


def _env_access(graph: CallGraph, module: str, node: ast.AST) -> str | None:
    """The REPRO_* name this node touches directly, if any."""
    key: ast.expr | None = None
    if (
        isinstance(node, ast.Subscript)
        and graph.resolve(module, node.value) == "os.environ"
    ):
        key = node.slice
    elif isinstance(node, ast.Call) and node.args:
        func = node.func
        # os.getenv(...), also after ``from os import getenv``
        if graph.resolve(module, func) == "os.getenv" or (
            # os.environ.get(...) and friends
            isinstance(func, ast.Attribute)
            and func.attr in _ENVIRON_METHODS
            and graph.resolve(module, func.value) == "os.environ"
        ):
            key = node.args[0]
    if (
        isinstance(key, ast.Constant)
        and isinstance(key.value, str)
        and key.value.startswith(ENV_PREFIX)
    ):
        return key.value
    return None
