"""RPL003 — determinism discipline: seeded randomness, no wall clock.

Every randomized artifact in this repository (oracle corpus, batch
seeds, sketches) is derived from explicit seeds, and the benchmark
gate diffs deterministic counters byte-for-byte.  Two things break
that quietly:

* **global-state randomness** — calls to the ``random`` module's
  functions, to legacy ``numpy.random`` module-level functions, or to
  ``default_rng()``/``SeedSequence()`` without a seed.  All of these
  draw from process-global or OS entropy, so results stop reproducing;
* **wall-clock reads in counted paths** — ``time.time()`` /
  ``datetime.now()`` and friends inside the join/estimator packages,
  where any clock-derived value can leak into counters or plans.
  ``time.perf_counter()`` stays legal: it only ever feeds the
  explicitly non-deterministic ``wall_seconds`` measurements.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.context import ModuleContext, ProjectContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register_rule
from repro.analysis.rules._ast_utils import (
    enclosing_function,
    import_aliases,
    resolve_call_target,
)

#: ``random`` module functions that draw from the global RNG.
_RANDOM_FUNCS = {
    "random", "uniform", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "lognormvariate", "getrandbits", "seed",
}

#: Legacy ``numpy.random`` module-level functions (global RandomState).
_NP_RANDOM_FUNCS = {
    "random", "rand", "randn", "randint", "random_sample", "ranf",
    "sample", "uniform", "normal", "standard_normal", "choice",
    "shuffle", "permutation", "seed", "poisson", "exponential",
    "binomial", "beta", "gamma", "bytes",
}

#: Absolute-time reads banned in counter-bearing packages.
_CLOCK_TARGETS = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


@register_rule
class DeterminismRule(Rule):
    id = "RPL003"
    title = "unseeded randomness / wall-clock reads in counted paths"
    invariant = (
        "Join, core and stats code never draws from an unseeded RNG "
        "and never reads the wall clock; randomness comes from an "
        "explicit seed parameter, timing from perf counters outside "
        "the counted path."
    )
    rationale = (
        "The counter goldens pin deterministic operation counters "
        "with ==; hidden entropy or wall-clock dependence makes "
        "counter regressions irreproducible and breaks the oracle "
        "corpus's exact-equality checks."
    )
    example = (
        "def jittered(boxes):\n"
        "    rng = np.random.default_rng()  # RPL003: unseeded\n"
        "    return boxes + rng.normal(size=boxes.shape)\n"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        banned_segments = set(self.config.clock_banned_segments)
        for module in project.sorted_modules():
            aliases = import_aliases(module.tree)
            clock_scoped = bool(
                banned_segments.intersection(module.name_segments)
            )
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                target = resolve_call_target(node.func, aliases)
                if target is None:
                    continue
                yield from self._check_random(module, node, target)
                if clock_scoped:
                    yield from self._check_clock(module, node, target)

    def _symbol(self, module: ModuleContext, node: ast.Call) -> str:
        function = enclosing_function(module.ancestors(node))
        return function.name if function is not None else "<module>"

    def _check_random(
        self, module: ModuleContext, node: ast.Call, target: str
    ) -> Iterator[Finding]:
        message: str | None = None
        if target.startswith("numpy.random."):
            func = target.removeprefix("numpy.random.")
            if func in _NP_RANDOM_FUNCS:
                message = (
                    f"numpy.random.{func}() uses the process-global "
                    "legacy RandomState; thread a seeded "
                    "numpy.random.Generator instead"
                )
            elif func in {"default_rng", "SeedSequence"} and not (
                node.args or node.keywords
            ):
                message = (
                    f"numpy.random.{func}() without a seed draws OS "
                    "entropy; pass an explicit seed"
                )
        elif target.startswith("random."):
            func = target.removeprefix("random.")
            if func in _RANDOM_FUNCS:
                message = (
                    f"random.{func}() uses the process-global RNG; "
                    "use a seeded numpy.random.Generator (or "
                    "random.Random(seed)) instead"
                )
        if message is not None:
            yield self.finding(
                path=module.display_path,
                line=node.lineno,
                column=node.col_offset,
                symbol=self._symbol(module, node),
                message=message,
            )

    def _check_clock(
        self, module: ModuleContext, node: ast.Call, target: str
    ) -> Iterator[Finding]:
        if target in _CLOCK_TARGETS or (
            # ``from datetime import datetime; datetime.now()``
            target.endswith((".now", ".utcnow"))
            and target.split(".")[0] in ("datetime",)
        ):
            yield self.finding(
                path=module.display_path,
                line=node.lineno,
                column=node.col_offset,
                symbol=self._symbol(module, node),
                message=(
                    f"wall-clock read {target}() inside a "
                    "counter-bearing package; derive timing from "
                    "time.perf_counter() into wall_seconds fields only"
                ),
            )
