"""Command-line front end: ``python -m repro.lint [paths...]``.

Exit status is 0 when clean, 1 when any finding survives suppression, and
2 on usage errors — so the CI lint job is just the bare invocation.

    python -m repro.lint src/                   # the gate
    python -m repro.lint --rule RPR007          # one rule, whole tree
    python -m repro.lint --format sarif --output lint.sarif
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from ..errors import ConfigError
from .engine import run_lint
from .report import render_rules, render_sarif, render_text

_RENDERERS = {"text": render_text, "sarif": render_sarif}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=(
            "Repo-specific static analysis: determinism, cache-fingerprint "
            "completeness, paper-constant hygiene, telemetry coverage, "
            "transitive taint, payload schemas."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--rule", metavar="CODE", action="append", default=None,
        help="run only this rule (repeatable; default: all)",
    )
    parser.add_argument(
        "--format", choices=tuple(_RENDERERS), default="text",
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


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(render_rules())
        return 0
    try:
        result = run_lint(args.paths, args.rule)
    except ConfigError as error:
        print(f"repro.lint: {error}", file=sys.stderr)
        return 2
    report = _RENDERERS[args.format](result)
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
        # Keep a human-readable pulse on stdout for CI logs.
        print(render_text(result).splitlines()[-1])
    else:
        print(report)
    return result.exit_code
