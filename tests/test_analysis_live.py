"""The lint rules still see the real tree.

The fixture tests prove each rule can fire on its fixture; they cannot
see a rename in ``src/`` (``_catalog``, ``request_cache_key``,
``SharedDatasetPool.publish``) that would silently take a rule out of
scope while the tree stays "clean".  This test copies ``src/repro``,
breaks one invariant per rule in the copy, and asserts each rule fires
at the symbol it guards.  Each mutation first checks that its target
text exists, so a rename fails here loudly instead of passing quietly.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.analysis.engine import AnalysisRequest, analyze_paths

REPO_ROOT = Path(__file__).resolve().parent.parent

#: (file under repro/, original text, mutated text) — one broken
#: invariant per rule.
MUTATIONS = [
    # RPL002: the router's catalog property reads _catalog without the
    # lock.
    (
        "service/sharded.py",
        "        with self._lock:\n"
        "            return self._catalog\n",
        "        return self._catalog\n",
    ),
    # RPL007: names() takes _mutate while holding _lock, the reverse
    # of the documented order (_mutate may take _lock, never after).
    (
        "service/sharded.py",
        "        with self._lock:\n"
        "            return self._catalog.names()\n",
        "        with self._lock:\n"
        "            with self._mutate:\n"
        "                return self._catalog.names()\n",
    ),
    # RPL008: publish loses the cleanup that closes and unlinks the
    # segment when filling it raises.
    (
        "storage/shm.py",
        "        except BaseException:\n"
        "            shm.close()\n"
        "            shm.unlink()\n"
        "            raise\n",
        "        except BaseException:\n"
        "            raise\n",
    ),
    # RPL009: the router's one key site drops `within`, which the
    # executor still runs.
    (
        "service/sharded.py",
        "            request.parameters,\n"
        "            request.within,\n",
        "            request.parameters,\n",
    ),
]

EXPECTED = {
    "RPL002": "ShardedQueryService.catalog",
    "RPL007": "ShardedQueryService.names",
    "RPL008": "SharedDatasetPool.publish",
    "RPL009": "JoinRequest.within",
}


def test_each_rule_fires_on_its_mutation_of_the_real_tree(
    tmp_path: Path,
) -> None:
    tree = tmp_path / "repro"
    shutil.copytree(
        REPO_ROOT / "src" / "repro",
        tree,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    for relative, original, mutated in MUTATIONS:
        target = tree / relative
        source = target.read_text(encoding="utf-8")
        assert source.count(original) == 1, (
            f"mutation target moved in {relative}: {original!r}"
        )
        target.write_text(
            source.replace(original, mutated), encoding="utf-8"
        )

    result = analyze_paths(
        AnalysisRequest(paths=[tree], tests_roots=(), root=tmp_path)
    )

    by_rule: dict[str, set[str]] = {}
    for finding in result.findings:
        by_rule.setdefault(finding.rule, set()).add(finding.symbol)
    assert set(by_rule) == set(EXPECTED), result.findings
    for rule, symbol in EXPECTED.items():
        assert symbol in by_rule[rule], (rule, by_rule[rule])
