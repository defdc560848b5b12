"""Command-line front end: ``python -m repro.lint [paths...]``.

Exit status is 0 when clean, 1 when any finding survives suppression (and
the baseline, when one is given), and 2 on usage errors — so the CI lint
job is just the bare invocation.

Fast local iteration::

    python -m repro.lint --rule RPR007          # one rule, whole tree
    python -m repro.lint --diff                 # only changed files report
    python -m repro.lint --baseline tools/lint_baseline.json
    python -m repro.lint --format sarif --output lint.sarif
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path

from ..errors import ConfigError
from .engine import LintConfig, run_lint
from .report import render, render_rules, render_text
from .registry import RULES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=(
            "Repo-specific static analysis: determinism, cache-fingerprint "
            "completeness, paper-constant hygiene, telemetry coverage, "
            "threshold ordering, transitive taint, "
            "payload schemas."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--rule", metavar="CODE", action="append", default=None,
        help="run only this rule (repeatable; shorthand for --select)",
    )
    parser.add_argument(
        "--ignore", metavar="CODES", default="",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--diff", action="store_true",
        help=(
            "report findings only in files changed versus git HEAD "
            "(the whole path set is still scanned so cross-module rules "
            "keep their context)"
        ),
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help=(
            "baseline JSON (tools/lint_baseline.json); its findings do "
            "not fail the run"
        ),
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output", metavar="FILE",
        help="write the report here instead of stdout (a one-line text "
             "summary still prints)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _codes(raw: str | None) -> tuple[str, ...] | None:
    if raw is None:
        return None
    return tuple(code.strip() for code in raw.split(",") if code.strip())


def changed_files(cwd: str | Path | None = None) -> frozenset[str]:
    """Python files changed versus HEAD plus untracked ones, per git."""
    out: set[str] = set()
    for args in (
        ("git", "diff", "--name-only", "HEAD"),
        ("git", "ls-files", "--others", "--exclude-standard"),
    ):
        try:
            proc = subprocess.run(
                args, cwd=cwd, capture_output=True, text=True, check=True,
            )
        except (OSError, subprocess.CalledProcessError) as error:
            raise ConfigError(
                f"--diff needs a git checkout ({' '.join(args)} failed: "
                f"{error})"
            ) from error
        out.update(
            line.strip()
            for line in proc.stdout.splitlines()
            if line.strip().endswith(".py")
        )
    return frozenset(out)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(render_rules())
        return 0
    try:
        select = _codes(args.select)
        if args.rule:
            select = tuple(select or ()) + tuple(
                code.strip() for code in args.rule if code.strip()
            )
        only_paths = changed_files() if args.diff else None
        config = LintConfig(
            select=select,
            ignore=_codes(args.ignore) or (),
            baseline=args.baseline,
            only_paths=only_paths,
        )
        result = run_lint(args.paths, config)
        report = render(result, args.format)
        if args.output:
            Path(args.output).write_text(report + "\n", encoding="utf-8")
            # Keep a human-readable pulse on stdout for CI logs.
            print(render_text(result).splitlines()[-1])
        else:
            print(report)
    except ConfigError as error:
        print(f"repro.lint: {error}", file=sys.stderr)
        return 2
    return result.exit_code


# Imported for the side effect of registering every rule before main runs.
assert RULES, "rule registry must not be empty"
