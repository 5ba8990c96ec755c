"""RPL005 — no module reads or writes a ``REPRO_*`` environment variable.

The library is configured through constructor arguments and module
constants only: a hidden environment knob changes answers or timings
without showing up at any call site, and a test that flips one tests a
configuration no caller uses.  Every ``REPRO_*`` access is a finding,
whatever the module.

Flagged shapes, whenever the name argument/key is a string literal
with the configured prefix:

* ``os.environ["REPRO_X"]`` (read or write) and slice variants;
* ``os.environ.get/setdefault/pop("REPRO_X", ...)``;
* ``os.getenv("REPRO_X", ...)`` (and ``from os import getenv``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.context import ModuleContext, ProjectContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register_rule
from repro.analysis.rules._ast_utils import (
    dotted_name,
    enclosing_function,
    import_aliases,
    string_literal,
)

_ENVIRON_METHODS = {"get", "setdefault", "pop"}


@register_rule
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

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for module in project.sorted_modules():
            aliases = import_aliases(module.tree)
            for node in ast.walk(module.tree):
                name = self._env_access(node, aliases)
                if name is None:
                    continue
                yield self.finding(
                    path=module.display_path,
                    line=node.lineno,
                    column=node.col_offset,
                    symbol=self._symbol(module, node),
                    message=(
                        f"environment access of {name!r}; make it a "
                        "constructor argument or a module constant"
                    ),
                )

    def _symbol(self, module: ModuleContext, node: ast.AST) -> str:
        function = enclosing_function(module.ancestors(node))
        return function.name if function is not None else "<module>"

    def _resolves_to_environ(
        self, node: ast.expr, aliases: dict[str, str]
    ) -> bool:
        name = dotted_name(node)
        if name is None:
            return False
        head, _, rest = name.partition(".")
        target = aliases.get(head, head)
        absolute = f"{target}.{rest}" if rest else target
        return absolute == "os.environ"

    def _prefixed(self, node: ast.expr) -> str | None:
        value = string_literal(node)
        if value is not None and value.startswith(self.config.env_prefix):
            return value
        return None

    def _env_access(
        self, node: ast.AST, aliases: dict[str, str]
    ) -> str | None:
        """The REPRO_* name this node touches directly, if any."""
        if isinstance(node, ast.Subscript) and self._resolves_to_environ(
            node.value, aliases
        ):
            return self._prefixed(node.slice)
        if isinstance(node, ast.Call):
            func = node.func
            if not node.args:
                return None
            first = node.args[0]
            # os.getenv(...) / getenv(...) after ``from os import getenv``
            target = dotted_name(func)
            if target is not None:
                head, _, rest = target.partition(".")
                absolute = aliases.get(head, head)
                absolute = f"{absolute}.{rest}" if rest else absolute
                if absolute == "os.getenv":
                    return self._prefixed(first)
            # os.environ.get(...) and friends
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _ENVIRON_METHODS
                and self._resolves_to_environ(func.value, aliases)
            ):
                return self._prefixed(first)
        return None
