"""RPL009 — every executed request field must reach the cache key.

The result cache answers "same request → same cached answer", which is
only sound if the key covers every request field that can change the
answer.  The pre-PR-7 ``within`` bug was exactly this: the distance
predicate flowed into execution (``workspace.join(..., within=...)``)
but not into ``request_cache_key``, so a ``within=5`` request could be
served a cached ``within=None`` result.

The rule works interprocedurally over the call graph:

* **fields** — annotated fields of each configured request dataclass
  (``JoinRequest``), minus configured exemptions (``label`` only names
  the report row);
* **key side** — the configured key functions and their direct
  callers (each caller is one key site: the function that assembles
  the key's arguments).  A field counts as keyed when a key function
  reads it itself, or when *every* one of its key sites reads it — one
  site that drops the field is enough for two requests to share an
  entry in that site's cache;
* **execution side** — request-field reads inside any function that
  calls an execution sink (``SpatialWorkspace.join``,
  ``BatchExecutor.run``) or is transitively called by one that does,
  excluding the request class's own methods and the key side.

A field read on the execution side but not keyed is a cache-correctness
hole and is flagged at the field's declaration.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.callgraph import CallGraph, FunctionInfo
from repro.analysis.context import ProjectContext
from repro.analysis.findings import Finding
from repro.analysis.registry import ProjectRule, register_rule


@register_rule
class CacheKeyCompletenessRule(ProjectRule):
    id = "RPL009"
    title = "request fields that reach execution must reach the cache key"
    invariant = (
        "Every non-exempt field of a request dataclass that is read "
        "on the execution side of the call graph is also read at "
        "every site where the result-cache key is derived."
    )
    rationale = (
        "A field that changes the join result but not the cache key "
        "makes the cache serve wrong answers for any second request "
        "that differs only in that field — the shipped `within` bug, "
        "where distance joins could be served the plain-join result."
    )
    example = (
        "@dataclass\n"
        "class JoinRequest:\n"
        "    within: float | None = None  # RPL009: executed via\n"
        "    # workspace.join(within=...) but absent from\n"
        "    # request_cache_key(...)\n"
    )

    def check_project(
        self, project: ProjectContext, graph: CallGraph
    ) -> Iterator[Finding]:
        for cls_qual, info in sorted(graph.classes.items()):
            short = cls_qual.rsplit(".", 1)[-1]
            if short not in self.config.request_classes:
                continue
            yield from self._check_request_class(
                project, graph, cls_qual, short
            )

    # ------------------------------------------------------------------
    def _check_request_class(
        self,
        project: ProjectContext,
        graph: CallGraph,
        cls_qual: str,
        cls_name: str,
    ) -> Iterator[Finding]:
        info = graph.classes[cls_qual]
        module = project.module(info.module)
        if module is None:
            return
        fields: dict[str, int] = {}
        for stmt in info.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                name = stmt.target.id
                if name.startswith("_"):
                    continue
                if name in self.config.cache_exempt_fields:
                    continue
                fields[name] = stmt.lineno
        if not fields:
            return

        key_functions = {
            qual
            for qual, fn in graph.functions.items()
            if fn.name in self.config.cache_key_functions
        }
        key_side = set(key_functions)
        covered: set[str] = set()
        for key_fn in key_functions:
            callers = {site.caller for site in graph.callers.get(key_fn, ())}
            key_side |= callers
            covered |= self._function_reads(
                graph, graph.functions[key_fn], cls_qual, fields
            )
            site_reads = [
                self._function_reads(
                    graph, graph.functions[caller], cls_qual, fields
                )
                for caller in callers
            ]
            if site_reads:
                covered |= site_reads[0].intersection(*site_reads[1:])

        execution_entries = {
            qual
            for qual in graph.functions
            if self._calls_sink(graph, qual)
        }
        execution_side: set[str] = set()
        for entry in execution_entries:
            execution_side.add(entry)
            execution_side.update(graph.closure(entry))
        # The key side and the request's own methods never count as
        # execution: reading a field to build the key (or a repr) is
        # the point, not a leak past it.
        execution_side -= key_side
        execution_side = {
            qual
            for qual in execution_side
            if not qual.startswith(f"{cls_qual}.")
        }

        executed = self._reads_with_sites(
            graph, execution_side, cls_qual, fields
        )
        for field_name in sorted(fields):
            if field_name in covered:
                continue
            reads = executed.get(field_name)
            if not reads:
                continue
            where = ", ".join(sorted({r for r in reads})[:3])
            yield self.finding(
                path=module.display_path,
                line=fields[field_name],
                column=0,
                symbol=f"{cls_name}.{field_name}",
                message=(
                    f"{cls_name}.{field_name} flows into execution "
                    f"({where}) but not into the cache key "
                    f"({'/'.join(self.config.cache_key_functions)}); "
                    "two requests differing only in this field would "
                    "share a cache entry"
                ),
            )

    def _calls_sink(self, graph: CallGraph, qualname: str) -> bool:
        return any(
            _matches_suffix(site.callee, self.config.execution_sinks)
            for site in graph.calls.get(qualname, ())
        )

    # ------------------------------------------------------------------
    def _reads_with_sites(
        self,
        graph: CallGraph,
        functions: set[str],
        cls_qual: str,
        fields: dict[str, int],
    ) -> dict[str, set[str]]:
        out: dict[str, set[str]] = {}
        for qualname in sorted(functions):
            fn = graph.functions.get(qualname)
            if fn is None:
                continue
            for name in self._function_reads(
                graph, fn, cls_qual, fields
            ):
                out.setdefault(name, set()).add(fn.display)
        return out

    def _function_reads(
        self,
        graph: CallGraph,
        fn: FunctionInfo,
        cls_qual: str,
        fields: dict[str, int],
    ) -> set[str]:
        """Field names of the request class this function reads.

        A read is ``base.field`` where ``base`` is a parameter or
        local annotated/constructed as the request class, or a name
        from the configured ``request_identifiers`` convention
        (``request``/``req``) for untyped code.
        """
        request_names = set(self.config.request_identifiers)
        typed = {
            arg.arg
            for arg in (
                *fn.node.args.posonlyargs,
                *fn.node.args.args,
                *fn.node.args.kwonlyargs,
            )
            if _annotation_is(arg.annotation, cls_qual)
        }
        reads: set[str] = set()
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node.attr in fields
                and isinstance(node.value, ast.Name)
                and (
                    node.value.id in typed
                    or node.value.id in request_names
                )
            ):
                reads.add(node.attr)
        return reads


def _annotation_is(
    annotation: ast.expr | None, cls_qual: str
) -> bool:
    """Does a plain annotation name the request class (by suffix)?"""
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        name = annotation.value
    else:
        parts: list[str] = []
        current = annotation
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            parts.append(current.id)
            name = ".".join(reversed(parts))
        else:
            return False
    short = cls_qual.rsplit(".", 1)[-1]
    return name == short or name.endswith(f".{short}") or name == cls_qual


def _matches_suffix(callee: str, targets: tuple[str, ...]) -> bool:
    parts = callee.split(".")
    for target in targets:
        tparts = target.split(".")
        if len(tparts) <= len(parts) and parts[-len(tparts):] == tparts:
            return True
    return False
