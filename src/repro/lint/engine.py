"""The lint driver: walk files, parse, run rules, filter suppressions.

The engine is deliberately dependency-free (stdlib ``ast`` + ``tokenize``)
so it runs anywhere the repo runs, including the CI lint job, with no
installation step beyond the repo itself.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .findings import Finding, SuppressionMap
from .project import ProjectContext
from .registry import Module, select_rules

#: Reserved code for files the linter cannot parse at all.
PARSE_ERROR_CODE = "RPR000"

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".repro_cache", ".venv", "node_modules"}


@dataclass
class LintResult:
    """Everything one run produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen: set[Path] = set()
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py")
                if not (_SKIP_DIRS & set(p.parts))
            )
        else:
            candidates = [path]
        for candidate in candidates:
            marker = candidate.resolve()
            if marker not in seen:
                seen.add(marker)
                out.append(candidate)
    return out


def _load_module(path: Path) -> tuple[Module | None, Finding | None]:
    """Parse one file; a syntax/decoding error is a finding, not a crash."""
    name = str(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        return None, Finding(name, 1, 1, PARSE_ERROR_CODE, f"unreadable: {error}")
    try:
        tree = ast.parse(source, filename=name)
    except SyntaxError as error:
        return None, Finding(
            name, error.lineno or 1, (error.offset or 0) + 1,
            PARSE_ERROR_CODE, f"syntax error: {error.msg}",
        )
    return Module(name, source, tree, SuppressionMap.from_source(source)), None


def run_lint(
    paths: Sequence[str | Path], rules: Iterable[str] | None = None
) -> LintResult:
    """Lint the given files/directories with the given rule codes (default:
    every registered rule) and return every unsuppressed finding."""
    selected = select_rules(rules)
    result = LintResult()
    raw_findings: list[Finding] = []
    modules: list[Module] = []

    for path in iter_python_files(paths):
        module, parse_error = _load_module(path)
        if parse_error is not None:
            raw_findings.append(parse_error)
        else:
            modules.append(module)
    result.files_checked = len(modules)

    project = ProjectContext(modules)
    for rule in selected:
        raw_findings.extend(rule.check(project))

    suppressions = {module.path: module.suppressions for module in modules}
    for finding in sorted(set(raw_findings)):
        noqa = suppressions.get(finding.path)
        if noqa is not None and noqa.suppresses(finding.line, finding.code):
            result.suppressed += 1
        else:
            result.findings.append(finding)
    return result
