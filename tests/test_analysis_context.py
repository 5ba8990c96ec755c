"""Coverage for the module/project context and suppression parsing."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.context import (
    ModuleContext,
    module_name_for,
    parse_suppressions,
)


def make_module(source: str, name: str = "m") -> ModuleContext:
    return ModuleContext(
        path=Path(f"{name}.py"),
        display_path=f"{name}.py",
        name=name,
        source=source,
        tree=ast.parse(source),
        suppressions=parse_suppressions(source),
    )


# ----------------------------------------------------------------------
# module_name_for
# ----------------------------------------------------------------------
def test_module_name_walks_up_init_files(tmp_path: Path) -> None:
    pkg = tmp_path / "outer" / "inner"
    pkg.mkdir(parents=True)
    (tmp_path / "outer" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text("")
    assert module_name_for(pkg / "mod.py") == "outer.inner.mod"
    assert module_name_for(pkg / "__init__.py") == "outer.inner"


def test_module_name_for_loose_file_is_its_stem(tmp_path: Path) -> None:
    loose = tmp_path / "script.py"
    loose.write_text("")
    assert module_name_for(loose) == "script"


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
def test_bare_ignore_suppresses_every_rule() -> None:
    module = make_module("x = 1  # repro: ignore\n")
    assert module.is_suppressed("RPL001", 1)
    assert module.is_suppressed("RPL999", 1)
    assert not module.is_suppressed("RPL001", 2)


def test_bracketed_ignore_suppresses_only_named_rules() -> None:
    module = make_module("x = 1  # repro: ignore[RPL001, RPL005]\n")
    assert module.is_suppressed("RPL001", 1)
    assert module.is_suppressed("RPL005", 1)
    assert not module.is_suppressed("RPL002", 1)


def test_suppression_rule_ids_are_case_insensitive() -> None:
    module = make_module("x = 1  # repro: ignore[rpl003]\n")
    assert module.is_suppressed("RPL003", 1)
    assert module.is_suppressed("rpl003", 1)


def test_empty_bracket_list_means_suppress_everything() -> None:
    # `# repro: ignore[]` parses to an empty set, which normalizes to
    # the bare-ignore meaning rather than "suppress nothing".
    assert parse_suppressions("x = 1  # repro: ignore[]\n") == {1: None}
    assert parse_suppressions("x = 1  # repro: ignore[ , ]\n") == {
        1: None
    }


def test_suppression_survives_tight_spacing_and_trailing_text() -> None:
    suppressions = parse_suppressions(
        "a = 1  #repro:ignore[RPL001]\n"
        "b = 2  # repro: ignore[RPL002]  (rationale in the PR)\n"
    )
    assert suppressions == {
        1: frozenset({"RPL001"}),
        2: frozenset({"RPL002"}),
    }


def test_unrelated_comments_do_not_suppress() -> None:
    assert parse_suppressions("x = 1  # ignore[RPL001]\n") == {}
    assert parse_suppressions("x = 1  # repro: ignored\n") == {}


# ----------------------------------------------------------------------
# ModuleContext helpers
# ----------------------------------------------------------------------
def test_ancestors_walk_innermost_first() -> None:
    module = make_module(
        "class C:\n"
        "    def m(self):\n"
        "        x = 1\n"
    )
    assign = module.tree.body[0].body[0].body[0]  # type: ignore[attr-defined]
    chain = module.ancestors(assign)
    kinds = [type(node).__name__ for node in chain]
    assert kinds == ["FunctionDef", "ClassDef", "Module"]


def test_enclosing_symbol_names_function_method_or_module() -> None:
    module = make_module(
        "top = 1\n"
        "def fn():\n"
        "    def inner():\n"
        "        return 2\n"
        "class C:\n"
        "    def m(self):\n"
        "        return 3\n"
    )
    top, fn, cls = module.tree.body
    assert isinstance(fn, ast.FunctionDef) and isinstance(cls, ast.ClassDef)
    inner, method = fn.body[0], cls.body[0]
    assert isinstance(inner, ast.FunctionDef)
    assert isinstance(method, ast.FunctionDef)
    assert module.enclosing_symbol(top) == "<module>"
    assert module.enclosing_symbol(fn) == "fn"
    assert module.enclosing_symbol(inner.body[0]) == "inner"
    assert module.enclosing_symbol(method) == "C.m"
    assert module.enclosing_symbol(method.body[0]) == "C.m"


def test_top_level_bindings_see_conditional_imports() -> None:
    module = make_module(
        "try:\n"
        "    import fast_path as impl\n"
        "except ImportError:\n"
        "    impl = None\n"
        "if True:\n"
        "    from os import sep\n"
        "for i in range(3):\n"
        "    counter = i\n"
        "limit: int = 5\n"
        "def fn():\n"
        "    hidden = 1\n"
    )
    bound = module.top_level_bindings()
    assert {"impl", "sep", "i", "counter", "limit", "fn"} <= bound
    assert "hidden" not in bound


def test_dunder_all_collects_literal_extensions_only() -> None:
    module = make_module(
        "__all__ = [\"a\", \"b\"]\n"
        "__all__ += [\"c\"]\n"
        "__all__ += compute()\n"
    )
    assert [name for name, _ in module.dunder_all()] == ["a", "b", "c"]


def test_name_segments_split_the_dotted_name() -> None:
    module = make_module("x = 1\n", name="repro.storage.shm")
    assert module.name_segments == ("repro", "storage", "shm")
