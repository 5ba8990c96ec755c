"""Runtime annotation resolution: the mypy-independent typing backstop.

`from __future__ import annotations` (PEP 563) turns every annotation
into a lazy string: a module can ship annotated with names it never
imported, import cleanly, pass every behavioural test — and then blow
up with ``NameError`` the first time anything calls
``typing.get_type_hints`` on it (dataclass introspection, runtime
validators, documentation tooling).  ``mypy --strict`` catches the
undefined name, but only where mypy is installed; the tier-1 suite
must not depend on that (see the header comment in ``mypy.ini``).

This sweep resolves the type hints of every public callable (and the
``__init__`` of every public class) across the strict-gate packages,
so an unresolvable annotation fails loudly in *any* environment.
Regression pinned: ``ResultCache`` was annotated with ``CacheKey``
without importing it — ``get_type_hints(ResultCache.get)`` raised
``NameError: name 'CacheKey' is not defined`` until the import was
added.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import typing

import pytest

#: The strict-gate surface (mirrors mypy.ini's strict set), plus
#: ``repro.refine`` and the engine's planner, report and workspace:
#: those sit outside mypy's strict set, so this sweep is the only check
#: that sees a stale name in their annotations or ``TYPE_CHECKING``
#: imports.
SWEPT_PACKAGES = (
    "repro.analysis",
    "repro.core",
    "repro.datagen",
    "repro.index",
    "repro.joins",
    "repro.metrics",
    "repro.refine",
    "repro.service",
    "repro.stats",
    "repro.storage",
    "repro.streaming",
    "repro.engine.executor",
    "repro.engine.planner",
    "repro.engine.report",
    "repro.engine.workspace",
)


def _iter_modules(root: str) -> list[str]:
    module = importlib.import_module(root)
    path = getattr(module, "__path__", None)
    if path is None:
        return [root]
    names = [root]
    for info in pkgutil.walk_packages(path, prefix=f"{root}."):
        names.append(info.name)
    return names


def _type_checking_imports(module: object) -> dict[str, object]:
    """Resolve the names a module imports under ``if TYPE_CHECKING:``.

    Those imports are deliberate (they break import cycles / layering)
    and mypy resolves them, so the runtime sweep must honour them too:
    the AST of the module is scanned for ``if TYPE_CHECKING:`` blocks
    and each import statement inside is executed here, at test time.
    A name the module never imports *anywhere* — the shipped
    ``CacheKey`` bug — still has nowhere to come from and still fails.
    """
    try:
        source = inspect.getsource(module)
    except (OSError, TypeError):  # pragma: no cover - all swept have source
        return {}
    resolved: dict[str, object] = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        is_guard = (
            isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
        ) or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )
        if not is_guard:
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module:
                origin = importlib.import_module(stmt.module)
                for alias in stmt.names:
                    bound = alias.asname or alias.name
                    resolved[bound] = getattr(origin, alias.name)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    resolved[bound] = importlib.import_module(
                        alias.name.partition(".")[0]
                    )
    return resolved


def _public_callables(
    module_name: str,
) -> list[tuple[str, object, dict[str, object]]]:
    """(label, callable, localns) for everything worth resolving.

    ``localns`` is the defining module's namespace — what
    ``get_type_hints`` would use for a module-level function — plus the
    module's declared ``if TYPE_CHECKING:`` imports, so annotations
    mypy can resolve also resolve here and only genuinely undefined
    names fail.
    """
    module = importlib.import_module(module_name)
    namespace = dict(vars(module))
    namespace.update(_type_checking_imports(module))
    out: list[tuple[str, object, dict[str, object]]] = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-export; swept where it is defined
        if inspect.isfunction(obj):
            out.append((f"{module_name}.{name}", obj, namespace))
        elif inspect.isclass(obj):
            for attr_name, attr in sorted(vars(obj).items()):
                if attr_name.startswith("_") and attr_name != "__init__":
                    continue
                func = inspect.unwrap(
                    attr.fget
                    if isinstance(attr, property) and attr.fget
                    else attr
                )
                if isinstance(
                    func, (staticmethod, classmethod)
                ):  # pragma: no cover - none in tree today
                    func = func.__func__
                if inspect.isfunction(func):
                    out.append(
                        (
                            f"{module_name}.{name}.{attr_name}",
                            func,
                            namespace,
                        )
                    )
    return out


ALL_MODULES = sorted(
    {
        name
        for package in SWEPT_PACKAGES
        for name in _iter_modules(package)
    }
)


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_every_public_annotation_resolves(module_name: str) -> None:
    callables = _public_callables(module_name)
    failures: list[str] = []
    for label, func, namespace in callables:
        try:
            typing.get_type_hints(func, localns=namespace)
        except Exception as exc:  # noqa: BLE001 - report all kinds
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
    assert not failures, (
        "annotations that cannot resolve at runtime (missing import "
        "hidden by PEP 563?):\n" + "\n".join(failures)
    )


def test_sweep_actually_covers_the_regression_site() -> None:
    """The sweep must include ResultCache.get — the shipped bug's site."""
    labels = [
        label for label, _, _ in _public_callables("repro.service.cache")
    ]
    assert "repro.service.cache.ResultCache.get" in labels


def test_resultcache_hints_name_the_cache_key_alias() -> None:
    """The original symptom, pinned directly: this raised NameError."""
    from repro.service.cache import ResultCache
    from repro.service.fingerprint import CacheKey

    hints = typing.get_type_hints(
        ResultCache.get, localns=vars(importlib.import_module(
            "repro.service.cache"
        ))
    )
    assert hints["key"] == CacheKey
