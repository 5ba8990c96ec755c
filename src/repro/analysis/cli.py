"""Command-line front-end: ``python -m repro.analysis [paths...]``.

Exit codes are strictly separated so CI can tell "the tree is dirty"
from "the tool was invoked wrong or blew up":

* **0** — clean (or every error baselined / suppressed);
* **1** — new error-severity findings above the baseline;
* **2** — usage errors (unknown rule ids, bad baseline file, a
  ``--changed-only`` ref git cannot diff, conflicting flags) and
  internal failures.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import traceback
from pathlib import Path

from repro.analysis.baseline import (
    BaselineError,
    load_baseline,
    partition,
    save_baseline,
)
from repro.analysis.engine import AnalysisRequest, analyze_paths
from repro.analysis.findings import Severity
from repro.analysis.registry import (
    RuleConfig,
    UnknownRuleError,
    registered_rules,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Repository-specific invariant lint: per-module rules "
            "(RPL001 pickle safety, RPL002 service-lock discipline, "
            "RPL003 determinism, RPL004 vectorized-kernel pairing, "
            "RPL005 REPRO_* env registry, RPL006 export hygiene, "
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
        "--baseline",
        type=Path,
        default=None,
        help="JSON baseline; findings recorded there do not fail the run",
    )
    parser.add_argument(
        "--write-baseline",
        type=Path,
        default=None,
        help="write current findings to this baseline file and exit 0",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULE",
        help="run only these rule ids (repeatable)",
    )
    parser.add_argument(
        "--disable",
        action="append",
        default=[],
        metavar="RULE",
        help="skip these rule ids (repeatable)",
    )
    parser.add_argument(
        "--tests-root",
        action="append",
        type=Path,
        default=None,
        help="directory searched for equivalence tests (default: tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format",
    )
    parser.add_argument(
        "--changed-only",
        metavar="REF",
        default=None,
        help=(
            "analyze only files changed since REF (plus their "
            "strongly-connected import dependents); needs git"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="parse workers for large trees (default: auto; 1 = serial)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--env-table",
        action="store_true",
        help="print the REPRO_* env-var table (markdown) and exit",
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


def _git_changed_files(ref: str) -> tuple[str, ...]:
    """Posix paths (relative to cwd) of ``*.py`` files changed vs ``ref``.

    Committed/staged/worktree changes come from ``git diff``; files git
    does not track yet are changed by definition and come from
    ``ls-files --others``.  Raises ``CalledProcessError`` (surfaced as
    a usage error) when the ref does not resolve.
    """
    toplevel = Path(
        subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            check=True,
            capture_output=True,
            text=True,
        ).stdout.strip()
    )
    names: set[str] = set()
    diff = subprocess.run(
        ["git", "diff", "--name-only", "--diff-filter=d", ref, "--", "*.py"],
        check=True,
        capture_output=True,
        text=True,
    )
    names.update(line for line in diff.stdout.splitlines() if line)
    untracked = subprocess.run(
        ["git", "ls-files", "--others", "--exclude-standard", "--", "*.py"],
        check=True,
        capture_output=True,
        text=True,
    )
    names.update(line for line in untracked.stdout.splitlines() if line)
    cwd = Path.cwd().resolve()
    out: list[str] = []
    for name in sorted(names):
        absolute = (toplevel / name).resolve()
        try:
            out.append(absolute.relative_to(cwd).as_posix())
        except ValueError:
            out.append(absolute.as_posix())
    return tuple(out)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.env_table:
        from repro.core.config import env_table_markdown

        print(env_table_markdown())
        return 0

    if args.rules_doc:
        from repro.analysis.docs import rules_reference_markdown

        print(rules_reference_markdown(), end="")
        return 0

    if args.list_rules:
        for rule_id, cls in registered_rules().items():
            print(f"{rule_id}  {cls.title}")
        return 0

    if args.changed_only is not None and args.write_baseline is not None:
        return _usage_error(
            "--write-baseline needs a full run; it cannot be combined "
            "with --changed-only"
        )
    if args.jobs is not None and args.jobs < 1:
        return _usage_error("--jobs must be a positive integer")
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        # A typo'd path must not masquerade as a clean scan.
        return _usage_error(
            "path(s) do not exist: " + ", ".join(missing)
        )

    changed: tuple[str, ...] | None = None
    if args.changed_only is not None:
        try:
            changed = _git_changed_files(args.changed_only)
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = ""
            if isinstance(exc, subprocess.CalledProcessError):
                detail = (exc.stderr or "").strip() or str(exc)
            else:
                detail = str(exc)
            return _usage_error(
                f"--changed-only {args.changed_only}: git failed: "
                f"{detail}"
            )

    request = AnalysisRequest(
        paths=[Path(p) for p in args.paths],
        config=RuleConfig(),
        select=tuple(args.select) if args.select is not None else None,
        disable=tuple(args.disable),
        tests_roots=(
            tuple(args.tests_root)
            if args.tests_root is not None
            else (Path("tests"),)
        ),
        jobs=args.jobs,
        changed=changed,
    )
    try:
        result = analyze_paths(request)
    except UnknownRuleError as exc:
        return _usage_error(str(exc))
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 2

    if args.write_baseline is not None:
        save_baseline(args.write_baseline, result.findings)
        print(
            f"wrote {len(result.findings)} finding(s) to "
            f"{args.write_baseline}"
        )
        return 0

    known_count = 0
    reportable = result.findings
    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, BaselineError) as exc:
            return _usage_error(str(exc))
        reportable, known = partition(result.findings, baseline)
        known_count = len(known)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "files_scanned": result.files_scanned,
                    "suppressed": result.suppressed,
                    "baselined": known_count,
                    "findings": [f.as_dict() for f in reportable],
                },
                indent=2,
            )
        )
    elif args.format == "sarif":
        from repro.analysis.sarif import render_sarif

        print(render_sarif(reportable))
    else:
        for finding in reportable:
            print(finding.render())
        summary = (
            f"{result.files_scanned} file(s) scanned, "
            f"{len(reportable)} finding(s)"
        )
        if known_count:
            summary += f", {known_count} baselined"
        if result.suppressed:
            summary += f", {result.suppressed} suppressed"
        if changed is not None:
            summary += f", changed-only vs {args.changed_only}"
        print(summary)

    has_errors = any(
        f.severity is Severity.ERROR for f in reportable
    )
    return 1 if has_errors else 0
