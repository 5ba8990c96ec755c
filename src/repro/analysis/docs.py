"""Generated rule reference (``docs/analysis-rules.md``).

The reference is rendered from the rule classes themselves — id,
title, invariant, rationale, example, suppression syntax — and a sync
test asserts the committed file matches :func:`rules_reference_markdown`
byte-for-byte, the same discipline the env-var table uses: the doc
cannot drift from the code because the drift fails CI.

Regenerate with::

    PYTHONPATH=src python -m repro.analysis --rules-doc > docs/analysis-rules.md
"""

from __future__ import annotations

from repro.analysis.registry import ProjectRule, registered_rules

_HEADER = """\
# Static analysis rules

<!-- Generated by `python -m repro.analysis --rules-doc`; do not edit
     by hand — `tests/test_analysis_docs.py` gates the sync. -->

`python -m repro.analysis [paths...]` runs every rule below over the
given trees (default `src`) and exits `0` when clean, `1` on any
finding and `2` on a usage or internal error.  Every finding fails the
run; suppress a single line with `# repro: ignore[RPL00N]`, or every
rule on that line with a bare `# repro: ignore`.

Project-scope rules (marked *whole-program*) resolve calls through the
project call graph and control-flow graphs built once per run; the
others work one module at a time.
"""


def rules_reference_markdown() -> str:
    """The full rule reference as markdown."""
    sections: list[str] = [_HEADER]
    for rule_id, cls in registered_rules().items():
        scope = (
            "whole-program"
            if issubclass(cls, ProjectRule)
            else "per-module"
        )
        lines = [
            f"## {rule_id} — {cls.title}",
            "",
            f"*Scope: {scope} · "
            f"suppression: `# repro: ignore[{rule_id}]`*",
        ]
        if cls.invariant:
            lines += ["", f"**Invariant.** {cls.invariant}"]
        if cls.rationale:
            lines += ["", f"**Why.** {cls.rationale}"]
        if cls.example:
            example = cls.example.rstrip("\n")
            lines += ["", "```python", example, "```"]
        sections.append("\n".join(lines) + "\n")
    return "\n".join(sections)
