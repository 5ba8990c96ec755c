"""Command-line front-end: ``python -m repro.analysis [paths...]``.

One way of running: scan every ``*.py`` file under the given paths
(default ``src``), print each finding and a summary line as text.
Exit codes are strictly separated so CI can tell "the tree is dirty"
from "the tool was invoked wrong or blew up":

* **0** — clean (every finding, if any, suppressed in place);
* **1** — at least one finding;
* **2** — usage errors (unknown rule ids, paths that do not exist)
  and internal failures.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from repro.analysis.engine import AnalysisRequest, analyze_paths
from repro.analysis.registry import UnknownRuleError, registered_rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Repository-specific invariant lint: per-module rules "
            "(RPL001 pickle safety, RPL002 service-lock discipline, "
            "RPL003 determinism, RPL004 vectorized-kernel pairing, "
            "RPL005 no REPRO_* env knobs, RPL006 export hygiene, "
            "RPL008 resource lifecycle) plus whole-program rules over "
            "the project call graph (RPL007 lock ordering, RPL009 "
            "cache-key completeness)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULE",
        help="run only these rule ids (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--rules-doc",
        action="store_true",
        help="print the generated rule reference (markdown) and exit",
    )
    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.rules_doc:
        from repro.analysis.docs import rules_reference_markdown

        print(rules_reference_markdown(), end="")
        return 0

    if args.list_rules:
        for rule_id, cls in registered_rules().items():
            print(f"{rule_id}  {cls.title}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        # A typo'd path must not masquerade as a clean scan.
        return _usage_error(
            "path(s) do not exist: " + ", ".join(missing)
        )

    request = AnalysisRequest(
        paths=[Path(p) for p in args.paths],
        select=tuple(args.select) if args.select is not None else None,
    )
    try:
        result = analyze_paths(request)
    except UnknownRuleError as exc:
        return _usage_error(str(exc))
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 2

    for finding in result.findings:
        print(finding.render())
    summary = (
        f"{result.files_scanned} file(s) scanned, "
        f"{len(result.findings)} finding(s)"
    )
    if result.suppressed:
        summary += f", {result.suppressed} suppressed"
    print(summary)
    return 1 if result.findings else 0
