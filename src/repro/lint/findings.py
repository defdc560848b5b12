"""Findings and inline suppression for the repro linter.

A :class:`Finding` is one diagnostic: a rule code, a location, and a
message.  Suppression follows the repo's own syntax, deliberately distinct
from ruff/flake8 ``# noqa`` so the two tools never swallow each other's
diagnostics::

    x = 358.0  # repro: noqa(RPR003) fixture target, not a config value
    y = sneaky()  # repro: noqa -- blanket, suppresses every rule on the line

Each suppression must come with a reason in practice (the text after the
closing parenthesis); the linter does not enforce prose, but
``docs/linting.md`` documents the convention and review does.
"""

from __future__ import annotations

import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO

#: Matches ``# repro: noqa`` and ``# repro: noqa(CODE, CODE...)``.
_NOQA = re.compile(
    r"#\s*repro:\s*noqa(?:\(([A-Z0-9,\s]+)\))?", re.IGNORECASE
)


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic produced by a rule."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class SuppressionMap:
    """Per-line ``# repro: noqa`` directives for one source file.

    ``codes_by_line[line]`` is the set of suppressed codes on that line; an
    empty set means a blanket ``noqa`` (everything suppressed).
    """

    codes_by_line: dict[int, set[str]] = field(default_factory=dict)

    def suppresses(self, line: int, code: str) -> bool:
        codes = self.codes_by_line.get(line)
        if codes is None:
            return False
        return not codes or code.upper() in codes

    @classmethod
    def from_source(cls, source: str) -> SuppressionMap:
        """Extract suppressions from comment tokens (never from strings).

        A directive inside a multi-line statement suppresses the whole
        logical line — rules anchor findings at a statement's *first*
        physical line, so a trailing ``noqa`` after a wrapped call
        argument must reach back to it.  Logical-line extent is tracked
        via tokenize: ``NEWLINE`` ends a logical line, ``NL`` (blank
        lines, comment-only lines, continuations inside brackets) does
        not.
        """
        codes_by_line: dict[int, set[str]] = {}

        def add(line: int, codes: set[str]) -> None:
            existing = codes_by_line.get(line)
            if existing is None:
                codes_by_line[line] = set(codes)
            elif not existing or not codes:
                codes_by_line[line] = set()  # blanket wins
            else:
                existing.update(codes)

        stmt_start: int | None = None
        pending: list[set[str]] = []
        try:
            tokens = tokenize.generate_tokens(StringIO(source).readline)
            for token in tokens:
                if token.type == tokenize.COMMENT:
                    match = _NOQA.search(token.string)
                    if not match:
                        continue
                    raw = match.group(1)
                    codes = (
                        {p.strip().upper() for p in raw.split(",") if p.strip()}
                        if raw
                        else set()
                    )
                    add(token.start[0], codes)
                    if stmt_start is not None:
                        pending.append(codes)
                elif token.type == tokenize.NEWLINE:
                    if stmt_start is not None and pending:
                        for line in range(stmt_start, token.start[0] + 1):
                            for codes in pending:
                                add(line, codes)
                    stmt_start = None
                    pending = []
                elif token.type in (
                    tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
                    tokenize.ENDMARKER,
                ):
                    continue
                elif stmt_start is None:
                    stmt_start = token.start[0]
        except tokenize.TokenError:
            # Untokenizable files produce a parse finding elsewhere; treat
            # them as having no suppressions rather than crashing the lint.
            pass
        return cls(codes_by_line)
