"""Every docstring example in the library runs as a test.

Tier-1 has no ``--doctest-modules``, so the examples in the docstrings
(``TransformersJoin``'s, ``range_query``'s, ``percentile``'s, ...) are
run here, one test per module; ``__main__`` modules are entry points
and are not imported.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith(".__main__")
)


@pytest.mark.parametrize("name", MODULES)
def test_examples_run(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module, report=False)
    assert result.failed == 0, f"{result.failed} failing example(s) in {name}"


def test_the_library_has_examples():
    finder = doctest.DocTestFinder()
    examples = sum(
        len(test.examples)
        for name in MODULES
        for test in finder.find(importlib.import_module(name))
    )
    assert examples >= 80
