"""Whole-program symbol table and call graph.

A per-module rule sees one :class:`~repro.analysis.context.ModuleContext`
at a time, so it cannot see a request field that skips the cache key
two modules away, or a lock order that only cycles through a call
chain.  This module builds the structures those *interprocedural*
rules need, once per analysis run:

* a **symbol table** — every top-level function, class and method in
  the scanned tree, addressed by dotted qualname
  (``repro.engine.executor.BatchExecutor.run``);
* a **call graph** — every call site, resolved through import aliases,
  ``self`` methods, base classes, constructor-typed locals
  (``pool = SharedDatasetPool(); pool.publish(...)``), annotated
  parameters and ``self.attr`` constructor assignments.  Unresolvable
  calls are kept with their best-effort dotted name so rules can still
  match external targets (``shared_memory.SharedMemory``);
* :func:`strongly_connected_components` over any adjacency map, which
  the lock-order rule runs on its lock-acquisition graph.

Resolution is deliberately conservative: a call that cannot be pinned
to one project symbol stays unresolved rather than guessed, so rules
built on the graph under-report instead of mis-report.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.context import ModuleContext, ProjectContext

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "strongly_connected_components",
]

#: Cap on re-export chain hops (``from repro import X`` where
#: ``repro.__init__`` itself re-imports): generous, but bounded so a
#: pathological alias cycle cannot hang resolution.
_MAX_REEXPORT_HOPS = 8


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    Local twin of ``rules._ast_utils.dotted_name`` — importing the
    rules package from here would run its registering ``__init__``
    mid-import of the rules themselves (they import this module).
    """
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def _module_package(module: ModuleContext) -> str:
    """The package dotted name relative imports resolve against."""
    if module.path.stem == "__init__":
        return module.name
    name, _, _ = module.name.rpartition(".")
    return name


def _import_aliases(module: ModuleContext) -> dict[str, str]:
    """Local name -> absolute dotted target, relative imports included."""
    aliases: dict[str, str] = {}
    package = _module_package(module)
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".") if package else []
                # ``from . import x`` is level 1 relative to the
                # package itself; each extra dot climbs one package.
                climb = node.level - 1
                if climb:
                    parts = parts[: len(parts) - climb] if climb <= len(parts) else []
                prefix = ".".join(parts)
                base = f"{prefix}.{base}" if base and prefix else (base or prefix)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname if alias.asname else alias.name
                aliases[local] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
    return aliases


@dataclass(frozen=True)
class CallSite:
    """One call expression, as resolved as the graph could make it."""

    #: Qualname of the function containing the call.
    caller: str
    #: Project qualname when ``resolved``; otherwise the best-effort
    #: absolute dotted name of the target (``numpy.asarray``).
    callee: str
    line: int
    column: int
    #: True when ``callee`` names a function/method in the scanned tree.
    resolved: bool
    #: True when ``callee`` is a project *class* (a constructor call).
    constructor: bool = False


@dataclass
class FunctionInfo:
    """One function or method in the scanned tree."""

    qualname: str
    module: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Unqualified name of the enclosing class, if this is a method.
    class_name: str | None = None

    @property
    def display(self) -> str:
        """``Class.method`` or bare function name — finding symbols."""
        if self.class_name is not None:
            return f"{self.class_name}.{self.name}"
        return self.name


@dataclass
class ClassInfo:
    """One class: bases, methods, and constructor-typed attributes."""

    qualname: str
    module: str
    node: ast.ClassDef
    #: Base classes as absolute dotted names (project or external).
    bases: tuple[str, ...] = ()
    #: Method name -> function qualname.
    methods: dict[str, str] = field(default_factory=dict)
    #: ``self.X = SomeClass(...)`` assignments anywhere in the class:
    #: attribute name -> project class qualname.
    self_attr_types: dict[str, str] = field(default_factory=dict)


class CallGraph:
    """Symbol table plus resolved call sites over one project context.

    Built once per analysis run (lazily, via
    :meth:`ProjectContext.callgraph`) and shared by every
    :class:`~repro.analysis.registry.ProjectRule`.
    """

    def __init__(self, project: ProjectContext) -> None:
        #: Function qualname -> info, for every def in the tree.
        self.functions: dict[str, FunctionInfo] = {}
        #: Class qualname -> info.
        self.classes: dict[str, ClassInfo] = {}
        #: Module name -> local alias map (import resolution).
        self.imports: dict[str, dict[str, str]] = {}
        #: Caller qualname -> call sites, in source order.
        self.calls: dict[str, list[CallSite]] = {}
        #: Callee qualname -> call sites targeting it (resolved only).
        self.callers: dict[str, list[CallSite]] = {}
        self._site_index: dict[str, dict[tuple[int, int], CallSite]] = {}
        self._closure_cache: dict[str, frozenset[str]] = {}
        self._build(project)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, project: ProjectContext) -> None:
        modules = project.sorted_modules()
        for module in modules:
            self.imports[module.name] = _import_aliases(module)
            self._collect_symbols(module)
        for module in modules:
            self._collect_self_attr_types(module)
        for module in modules:
            self._collect_calls(module)

    def _collect_symbols(self, module: ModuleContext) -> None:
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{module.name}.{stmt.name}"
                self.functions[qualname] = FunctionInfo(
                    qualname=qualname,
                    module=module.name,
                    name=stmt.name,
                    node=stmt,
                )
            elif isinstance(stmt, ast.ClassDef):
                cls_qual = f"{module.name}.{stmt.name}"
                bases = tuple(
                    resolved
                    for base in stmt.bases
                    if (dotted := _dotted(base)) is not None
                    and (
                        resolved := self._absolute(module.name, dotted)
                    )
                )
                info = ClassInfo(
                    qualname=cls_qual,
                    module=module.name,
                    node=stmt,
                    bases=bases,
                )
                for sub in stmt.body:
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        fn_qual = f"{cls_qual}.{sub.name}"
                        self.functions[fn_qual] = FunctionInfo(
                            qualname=fn_qual,
                            module=module.name,
                            name=sub.name,
                            node=sub,
                            class_name=stmt.name,
                        )
                        info.methods[sub.name] = fn_qual
                self.classes[cls_qual] = info

    def _collect_self_attr_types(self, module: ModuleContext) -> None:
        """``self.X = SomeClass(...)`` -> attribute type, per class."""
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            info = self.classes[f"{module.name}.{stmt.name}"]
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                cls = self._call_constructs(module.name, node.value)
                if cls is None:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        existing = info.self_attr_types.get(target.attr)
                        if existing is not None and existing != cls:
                            # Conflicting constructors: type unknown.
                            info.self_attr_types[target.attr] = ""
                        elif existing is None:
                            info.self_attr_types[target.attr] = cls
            info.self_attr_types = {
                attr: cls
                for attr, cls in info.self_attr_types.items()
                if cls
            }

    def _collect_calls(self, module: ModuleContext) -> None:
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{module.name}.{stmt.name}"
                self._collect_function_calls(module, qualname, stmt, None)
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        qualname = f"{module.name}.{stmt.name}.{sub.name}"
                        self._collect_function_calls(
                            module, qualname, sub, stmt.name
                        )

    def _collect_function_calls(
        self,
        module: ModuleContext,
        qualname: str,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
    ) -> None:
        types = self._local_types(module.name, func)
        sites: list[CallSite] = []
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            site = self._resolve_call(
                module.name, qualname, class_name, types, node
            )
            if site is not None:
                sites.append(site)
        sites.sort(key=lambda s: (s.line, s.column))
        self.calls[qualname] = sites
        index = self._site_index.setdefault(qualname, {})
        for site in sites:
            index[(site.line, site.column)] = site
            if site.resolved:
                self.callers.setdefault(site.callee, []).append(site)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _absolute(self, module: str, dotted: str) -> str:
        """``dotted`` with its head rewritten through import aliases."""
        head, _, rest = dotted.partition(".")
        target = self.imports.get(module, {}).get(head)
        if target is None:
            # A module-local symbol keeps its module prefix; anything
            # else stays as written (builtins, globals we cannot see).
            if (
                f"{module}.{head}" in self.functions
                or f"{module}.{head}" in self.classes
            ):
                target = f"{module}.{head}"
            else:
                target = head
        return f"{target}.{rest}" if rest else target

    def _project_symbol(self, dotted: str) -> str | None:
        """Project qualname ``dotted`` refers to, chasing re-exports."""
        seen: set[str] = set()
        current = dotted
        for _ in range(_MAX_REEXPORT_HOPS):
            if current in self.functions or current in self.classes:
                return current
            if current in seen:
                return None
            seen.add(current)
            # ``repro.X`` where ``repro``'s __init__ imported X from
            # its defining module: hop through that module's aliases.
            owner, _, symbol = current.rpartition(".")
            if not owner or owner not in self.imports:
                return None
            target = self.imports[owner].get(symbol)
            if target is None:
                return None
            current = target
        return None

    def _call_constructs(
        self, module: str, call: ast.Call
    ) -> str | None:
        """Project class qualname a call constructs, if any."""
        dotted = _dotted(call.func)
        if dotted is None:
            return None
        symbol = self._project_symbol(self._absolute(module, dotted))
        if symbol is not None and symbol in self.classes:
            return symbol
        return None

    def _annotation_class(
        self, module: str, annotation: ast.expr | None
    ) -> str | None:
        """Project class named by a plain annotation, if unambiguous.

        Unions, subscripts and string annotations resolve to ``None``
        — a variable whose static type is uncertain must stay untyped
        rather than mistyped.
        """
        if annotation is None:
            return None
        dotted = _dotted(annotation)
        if dotted is None:
            return None
        symbol = self._project_symbol(self._absolute(module, dotted))
        if symbol is not None and symbol in self.classes:
            return symbol
        return None

    def _local_types(
        self, module: str, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> dict[str, str]:
        """Variable -> project class qualname, flow-insensitively.

        A name assigned from exactly one project-class constructor (or
        annotated with one) is typed; conflicting assignments untype
        it.  ``self`` is deliberately absent — method dispatch on
        ``self`` goes through the class info instead.
        """
        types: dict[str, str] = {}
        conflicted: set[str] = set()

        def record(name: str, cls: str | None) -> None:
            if name in conflicted:
                return
            if cls is None:
                if name in types:
                    del types[name]
                conflicted.add(name)
                return
            existing = types.get(name)
            if existing is not None and existing != cls:
                del types[name]
                conflicted.add(name)
            else:
                types[name] = cls

        args = func.args
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
        ):
            cls = self._annotation_class(module, arg.annotation)
            if cls is not None:
                types[arg.arg] = cls
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                if len(node.targets) == 1 and isinstance(
                    node.targets[0], ast.Name
                ):
                    if isinstance(node.value, ast.Call):
                        record(
                            node.targets[0].id,
                            self._call_constructs(module, node.value),
                        )
                    else:
                        record(node.targets[0].id, None)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                cls = self._annotation_class(module, node.annotation)
                record(node.target.id, cls)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(
                        item.optional_vars, ast.Name
                    ) and isinstance(item.context_expr, ast.Call):
                        record(
                            item.optional_vars.id,
                            self._call_constructs(
                                module, item.context_expr
                            ),
                        )
        return types

    def method_on(self, class_qual: str, name: str) -> str | None:
        """Function qualname ``name`` resolves to on a class (MRO-ish).

        Walks the class then its bases depth-first; external bases end
        the walk (their methods are invisible).
        """
        seen: set[str] = set()
        stack = [class_qual]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if name in info.methods:
                return info.methods[name]
            stack.extend(
                base
                for raw in info.bases
                if (base := self._project_symbol(raw)) is not None
            )
        return None

    def _resolve_call(
        self,
        module: str,
        caller: str,
        class_name: str | None,
        types: dict[str, str],
        call: ast.Call,
    ) -> CallSite | None:
        func = call.func
        line, column = call.lineno, call.col_offset

        def site(
            callee: str, resolved: bool, constructor: bool = False
        ) -> CallSite:
            return CallSite(
                caller=caller,
                callee=callee,
                line=line,
                column=column,
                resolved=resolved,
                constructor=constructor,
            )

        # Method call through an object we can type.
        if isinstance(func, ast.Attribute):
            base = func.value
            target_class: str | None = None
            if isinstance(base, ast.Name):
                if base.id == "self" and class_name is not None:
                    target_class = f"{module}.{class_name}"
                elif base.id in types:
                    target_class = types[base.id]
            elif (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and class_name is not None
            ):
                cls_info = self.classes.get(f"{module}.{class_name}")
                if cls_info is not None:
                    target_class = cls_info.self_attr_types.get(
                        base.attr
                    )
            elif isinstance(base, ast.Call):
                target_class = self._call_constructs(module, base)
            if target_class:
                method = self.method_on(target_class, func.attr)
                if method is not None:
                    return site(method, resolved=True)
                # Known class, unknown method (dynamic or external
                # base): keep the class-qualified name, unresolved.
                return site(
                    f"{target_class}.{func.attr}", resolved=False
                )
        dotted = _dotted(func)
        if dotted is None:
            return None
        absolute = self._absolute(module, dotted)
        symbol = self._project_symbol(absolute)
        if symbol is not None:
            if symbol in self.functions:
                return site(symbol, resolved=True)
            return site(symbol, resolved=True, constructor=True)
        return site(absolute, resolved=False)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def site_at(
        self, caller: str, line: int, column: int
    ) -> CallSite | None:
        """The recorded call site at an exact source position."""
        return self._site_index.get(caller, {}).get((line, column))

    def resolved_callees(self, qualname: str) -> set[str]:
        """Direct project callees of one function (methods included)."""
        return {
            s.callee
            for s in self.calls.get(qualname, ())
            if s.resolved and not s.constructor
        }

    def closure(self, qualname: str) -> frozenset[str]:
        """Every project function transitively reachable from one.

        The start itself is excluded unless it is reachable through a
        cycle.  Results are memoised — rules share one graph.
        """
        cached = self._closure_cache.get(qualname)
        if cached is not None:
            return cached
        seen: set[str] = set()
        stack = list(self.resolved_callees(qualname))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.resolved_callees(current) - seen)
        result = frozenset(seen)
        self._closure_cache[qualname] = result
        return result

    def functions_in(self, module: str) -> list[FunctionInfo]:
        """Functions defined in one module, in qualname order."""
        return sorted(
            (f for f in self.functions.values() if f.module == module),
            key=lambda f: f.qualname,
        )


def strongly_connected_components(
    graph: dict[str, set[str]],
) -> list[set[str]]:
    """Tarjan's SCCs, iteratively (no recursion-depth ceiling)."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[set[str]] = []
    counter = 0

    for root in sorted(graph):
        if root in index:
            continue
        work: list[tuple[str, list[str]]] = [
            (root, sorted(graph.get(root, ())))
        ]
        while work:
            node, children = work[-1]
            if node not in index:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            while children:
                child = children.pop(0)
                if child not in graph:
                    continue
                if child not in index:
                    work.append((child, sorted(graph.get(child, ()))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components
