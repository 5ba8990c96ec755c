"""Generated rule reference (``docs/analysis-rules.md``).

The reference is rendered from the ``RULES`` tuple itself — id,
title, invariant, rationale, example, suppression syntax — and a sync
test asserts the committed file matches :func:`rules_reference_markdown`
byte-for-byte: the doc cannot drift from the code because the drift
fails CI.

Regenerate with::

    PYTHONPATH=src python -m repro.analysis --rules-doc > docs/analysis-rules.md
"""

from __future__ import annotations

from repro.analysis.rules import RULES

_HEADER = """\
# Static analysis rules

<!-- Generated by `python -m repro.analysis --rules-doc`; do not edit
     by hand — `tests/test_analysis_docs.py` gates the sync. -->

`python -m repro.analysis [paths...]` runs every rule below over the
given trees (default `src`) and exits `0` when clean, `1` on any
finding and `2` on a usage or internal error.  Every finding fails the
run; suppress a single line with `# repro: ignore[RPL00N]`, or every
rule on that line with a bare `# repro: ignore`.

Every rule sees the whole scanned tree and resolves imported names
through one project symbol table and call graph, built once per run.
"""


def rules_reference_markdown() -> str:
    """The full rule reference as markdown."""
    sections: list[str] = [_HEADER]
    for rule in RULES:
        lines = [
            f"## {rule.id} — {rule.title}",
            "",
            f"*Suppression: `# repro: ignore[{rule.id}]`*",
        ]
        if rule.invariant:
            lines += ["", f"**Invariant.** {rule.invariant}"]
        if rule.rationale:
            lines += ["", f"**Why.** {rule.rationale}"]
        if rule.example:
            example = rule.example.rstrip("\n")
            lines += ["", "```python", example, "```"]
        sections.append("\n".join(lines) + "\n")
    return "\n".join(sections)
