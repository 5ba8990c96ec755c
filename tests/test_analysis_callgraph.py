"""Unit tests for the whole-program call graph and its SCC helper."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.callgraph import (
    CallGraph,
    strongly_connected_components,
)
from repro.analysis.context import ModuleContext, ProjectContext


def make_project(sources: dict[str, str]) -> ProjectContext:
    """A ProjectContext from dotted-name -> source, no filesystem.

    A key ending in ``.__init__`` becomes the package module itself
    (its name drops the suffix, its path keeps ``__init__.py`` so
    relative imports resolve against the package).
    """
    modules: dict[str, ModuleContext] = {}
    for key, source in sources.items():
        if key.endswith(".__init__"):
            name = key[: -len(".__init__")]
            path = Path(*name.split("."), "__init__.py")
        else:
            name = key
            path = Path(*name.split(".")).with_suffix(".py")
        modules[name] = ModuleContext(
            path=path,
            display_path=path.as_posix(),
            name=name,
            source=source,
            tree=ast.parse(source),
        )
    return ProjectContext(modules=modules)


def graph_of(sources: dict[str, str]) -> CallGraph:
    return make_project(sources).callgraph()


# ----------------------------------------------------------------------
# Symbol table
# ----------------------------------------------------------------------
def test_symbol_table_covers_functions_classes_and_methods() -> None:
    graph = graph_of(
        {
            "pkg.mod": (
                "def helper():\n"
                "    pass\n"
                "class Widget:\n"
                "    def spin(self):\n"
                "        pass\n"
            )
        }
    )
    assert "pkg.mod.helper" in graph.functions
    assert "pkg.mod.Widget" in graph.classes
    assert "pkg.mod.Widget.spin" in graph.functions
    assert graph.functions["pkg.mod.Widget.spin"].display == "Widget.spin"
    assert graph.functions["pkg.mod.helper"].display == "helper"
    assert graph.classes["pkg.mod.Widget"].methods == {
        "spin": "pkg.mod.Widget.spin"
    }


def test_functions_in_lists_one_module_in_order() -> None:
    graph = graph_of(
        {
            "pkg.a": "def zeta():\n    pass\ndef alpha():\n    pass\n",
            "pkg.b": "def other():\n    pass\n",
        }
    )
    names = [f.qualname for f in graph.functions_in("pkg.a")]
    assert names == ["pkg.a.alpha", "pkg.a.zeta"]


# ----------------------------------------------------------------------
# Call resolution
# ----------------------------------------------------------------------
def test_import_alias_forms_all_resolve() -> None:
    graph = graph_of(
        {
            "pkg.b": "def helper():\n    pass\n",
            "pkg.a": (
                "import pkg.b\n"
                "import pkg.b as bee\n"
                "from pkg.b import helper\n"
                "from pkg.b import helper as h\n"
                "def use():\n"
                "    pkg.b.helper()\n"
                "    bee.helper()\n"
                "    helper()\n"
                "    h()\n"
            ),
        }
    )
    callees = [s.callee for s in graph.calls["pkg.a.use"]]
    assert callees == ["pkg.b.helper"] * 4
    assert all(s.resolved for s in graph.calls["pkg.a.use"])


def test_relative_imports_resolve_against_the_package() -> None:
    graph = graph_of(
        {
            "pkg.__init__": "",
            "pkg.b": "def helper():\n    pass\n",
            "pkg.sub.__init__": "",
            "pkg.sub.c": (
                "from ..b import helper\n"
                "from . import d\n"
                "def use():\n"
                "    helper()\n"
                "    d.deep()\n"
            ),
            "pkg.sub.d": "def deep():\n    pass\n",
        }
    )
    callees = {s.callee for s in graph.calls["pkg.sub.c.use"]}
    assert callees == {"pkg.b.helper", "pkg.sub.d.deep"}


def test_reexport_chains_resolve_to_the_defining_module() -> None:
    graph = graph_of(
        {
            "pkg.__init__": "from pkg.impl import helper\n",
            "pkg.impl": "def helper():\n    pass\n",
            "client": (
                "from pkg import helper\n"
                "def use():\n"
                "    helper()\n"
            ),
        }
    )
    (site,) = graph.calls["client.use"]
    assert site.callee == "pkg.impl.helper"
    assert site.resolved


def test_constructor_calls_are_marked_and_type_locals() -> None:
    graph = graph_of(
        {
            "m": (
                "class Widget:\n"
                "    def spin(self):\n"
                "        pass\n"
                "def use():\n"
                "    w = Widget()\n"
                "    w.spin()\n"
            )
        }
    )
    sites = graph.calls["m.use"]
    ctor = [s for s in sites if s.constructor]
    assert [s.callee for s in ctor] == ["m.Widget"]
    assert {s.callee for s in sites if not s.constructor} == {
        "m.Widget.spin"
    }
    # Constructors are not walked into by closure/resolved_callees.
    assert graph.resolved_callees("m.use") == {"m.Widget.spin"}


def test_annotated_parameters_type_the_receiver() -> None:
    graph = graph_of(
        {
            "m": (
                "class Widget:\n"
                "    def spin(self):\n"
                "        pass\n"
                "def use(w: Widget):\n"
                "    w.spin()\n"
            )
        }
    )
    assert graph.resolved_callees("m.use") == {"m.Widget.spin"}


def test_conflicting_assignments_untype_the_local() -> None:
    graph = graph_of(
        {
            "m": (
                "class A:\n"
                "    def go(self):\n"
                "        pass\n"
                "class B:\n"
                "    def go(self):\n"
                "        pass\n"
                "def use(flag):\n"
                "    x = A()\n"
                "    if flag:\n"
                "        x = B()\n"
                "    x.go()\n"
            )
        }
    )
    # x could be either class: the call must stay unresolved rather
    # than guessed.
    assert graph.resolved_callees("m.use") == set()


def test_self_and_inherited_method_dispatch() -> None:
    graph = graph_of(
        {
            "m": (
                "class Base:\n"
                "    def shared(self):\n"
                "        pass\n"
                "class Child(Base):\n"
                "    def run(self):\n"
                "        self.shared()\n"
            )
        }
    )
    assert graph.resolved_callees("m.Child.run") == {"m.Base.shared"}
    assert graph.method_on("m.Child", "shared") == "m.Base.shared"
    assert graph.method_on("m.Child", "missing") is None


def test_self_attribute_constructor_types_the_attribute() -> None:
    graph = graph_of(
        {
            "m": (
                "class Engine:\n"
                "    def fire(self):\n"
                "        pass\n"
                "class Car:\n"
                "    def __init__(self):\n"
                "        self.engine = Engine()\n"
                "    def drive(self):\n"
                "        self.engine.fire()\n"
            )
        }
    )
    assert graph.classes["m.Car"].self_attr_types == {
        "engine": "m.Engine"
    }
    assert graph.resolved_callees("m.Car.drive") == {"m.Engine.fire"}


def test_external_calls_keep_their_dotted_name_unresolved() -> None:
    graph = graph_of(
        {
            "m": (
                "import numpy as np\n"
                "def use(x):\n"
                "    return np.asarray(x)\n"
            )
        }
    )
    (site,) = graph.calls["m.use"]
    assert site.callee == "numpy.asarray"
    assert not site.resolved


def test_site_at_finds_the_call_by_position() -> None:
    graph = graph_of(
        {"m": "def f():\n    pass\ndef g():\n    f()\n"}
    )
    (site,) = graph.calls["m.g"]
    assert graph.site_at("m.g", site.line, site.column) is site
    assert graph.site_at("m.g", site.line, site.column + 1) is None


def test_callers_is_the_reverse_index() -> None:
    graph = graph_of(
        {
            "m": (
                "def f():\n"
                "    pass\n"
                "def g():\n"
                "    f()\n"
                "def h():\n"
                "    f()\n"
            )
        }
    )
    assert {s.caller for s in graph.callers["m.f"]} == {"m.g", "m.h"}


def test_closure_is_transitive_and_cycle_safe() -> None:
    graph = graph_of(
        {
            "m": (
                "def a():\n"
                "    b()\n"
                "def b():\n"
                "    c()\n"
                "def c():\n"
                "    a()\n"
                "def d():\n"
                "    pass\n"
            )
        }
    )
    assert graph.closure("m.a") == {"m.a", "m.b", "m.c"}
    assert graph.closure("m.d") == frozenset()
    # Memoised: same object back.
    assert graph.closure("m.a") is graph.closure("m.a")


# ----------------------------------------------------------------------
# Strongly-connected components (RPL007's cycle finder)
# ----------------------------------------------------------------------
def test_sccs_group_import_cycles() -> None:
    graph = {
        "a": {"b"},
        "b": {"a"},
        "c": {"a"},
    }
    components = strongly_connected_components(graph)
    assert {frozenset(c) for c in components} == {
        frozenset({"a", "b"}),
        frozenset({"c"}),
    }
