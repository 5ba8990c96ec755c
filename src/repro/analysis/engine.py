"""The analysis driver: collect files, parse, run rules, filter.

:func:`analyze_paths` is the programmatic entry point the CLI, the
test suite and CI all share.  It has one way of running: every file
under the given paths is parsed serially, every selected rule runs
over the whole project, and line suppressions drop what they name.
It is deterministic: files are walked in sorted order and findings
come back sorted by location, so two runs over the same tree produce
byte-identical reports.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.context import (
    ModuleContext,
    ProjectContext,
    module_name_for,
    parse_suppressions,
)
from repro.analysis.findings import Finding
from repro.analysis.registry import RuleConfig, build_rules

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}

#: Rule id used for files that do not parse at all.
PARSE_ERROR_RULE = "RPL000"


@dataclass
class AnalysisResult:
    """Everything one run produced."""

    findings: list[Finding]
    files_scanned: int
    suppressed: int


def collect_files(paths: list[Path]) -> list[Path]:
    """Every ``*.py`` file under ``paths``, sorted, deduplicated."""
    seen: set[Path] = set()
    out: list[Path] = []
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(path)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if any(part in _SKIP_DIRS for part in candidate.parts):
                    continue
                resolved = candidate.resolve()
                if resolved not in seen:
                    seen.add(resolved)
                    out.append(candidate)
    return out


def _display_path(path: Path, root: Path) -> str:
    """``path`` relative to ``root`` when possible, posix-style."""
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def load_module(path: Path, root: Path) -> ModuleContext | Finding:
    """Parse one file; a syntax error becomes an RPL000 finding."""
    display = _display_path(path, root)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Finding(
            path=display,
            line=exc.lineno or 1,
            column=(exc.offset or 1) - 1,
            rule=PARSE_ERROR_RULE,
            symbol=Path(display).stem,
            message=f"file does not parse: {exc.msg}",
        )
    return ModuleContext(
        path=path,
        display_path=display,
        name=module_name_for(path),
        source=source,
        tree=tree,
        suppressions=parse_suppressions(source),
    )


@dataclass
class AnalysisRequest:
    """Inputs of one :func:`analyze_paths` run."""

    paths: list[Path]
    config: RuleConfig = field(default_factory=RuleConfig)
    #: Rule ids to run; ``None`` runs every registered rule.
    select: tuple[str, ...] | None = None
    #: Directories searched for equivalence tests (RPL004).
    tests_roots: tuple[Path, ...] = (Path("tests"),)
    #: Paths in findings are made relative to this directory.
    root: Path = field(default_factory=Path.cwd)


def analyze_paths(request: AnalysisRequest) -> AnalysisResult:
    """Run the active rule set over every file under ``request.paths``."""
    modules: dict[str, ModuleContext] = {}
    findings: list[Finding] = []
    files = collect_files(request.paths)
    for path in files:
        loaded = load_module(path, request.root)
        if isinstance(loaded, Finding):
            findings.append(loaded)
            continue
        # Two files mapping to one dotted name (e.g. scanning two
        # sibling trees) keep the first; rules see a consistent world.
        modules.setdefault(loaded.name, loaded)
    project = ProjectContext(
        modules=modules,
        tests_roots=tuple(
            root for root in request.tests_roots if root.is_dir()
        ),
    )
    for rule in build_rules(request.config, select=request.select):
        findings.extend(rule.check(project))
    kept: list[Finding] = []
    suppressed = 0
    by_display = {m.display_path: m for m in modules.values()}
    for finding in findings:
        module = by_display.get(finding.path)
        if module is not None and module.is_suppressed(
            finding.rule, finding.line
        ):
            suppressed += 1
            continue
        kept.append(finding)
    kept.sort()
    return AnalysisResult(
        findings=kept,
        files_scanned=len(files),
        suppressed=suppressed,
    )
