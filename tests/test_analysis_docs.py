"""The generated rule reference must stay in sync with the rules.

``docs/analysis-rules.md`` is a committed artifact of ``python -m
repro.analysis --rules-doc``, and this test fails the build the moment
a rule's id, title, invariant, rationale or example drifts from the
committed document.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.docs import rules_reference_markdown
from repro.analysis.rules import RULES

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_PATH = REPO_ROOT / "docs" / "analysis-rules.md"


def test_rules_doc_file_matches_the_generator_exactly() -> None:
    committed = DOC_PATH.read_text(encoding="utf-8")
    assert committed == rules_reference_markdown(), (
        "docs/analysis-rules.md is stale; regenerate it with "
        "'PYTHONPATH=src python -m repro.analysis --rules-doc "
        "> docs/analysis-rules.md'"
    )


def test_rules_doc_covers_every_registered_rule() -> None:
    doc = rules_reference_markdown()
    for rule in RULES:
        assert f"## {rule.id}" in doc
        assert rule.title in doc
        # Every rule must carry real documentation metadata — the
        # generator inherits empty strings otherwise.
        assert rule.invariant, f"{rule.id} has no invariant text"
        assert rule.rationale, f"{rule.id} has no rationale text"
        assert rule.example, f"{rule.id} has no example snippet"


def test_rules_doc_documents_suppression_for_each_rule() -> None:
    doc = rules_reference_markdown()
    for rule in RULES:
        assert f"# repro: ignore[{rule.id}]" in doc


def test_readme_links_the_rule_reference() -> None:
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/analysis-rules.md" in readme, (
        "README must link the generated rule reference"
    )
    for flag in ("--select", "--list-rules", "--rules-doc"):
        assert flag in readme, (
            f"README static-analysis section must document {flag}"
        )
