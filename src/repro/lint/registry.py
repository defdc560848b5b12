"""Rule registry: one class per rule code, discovered by the engine.

Every rule has one hook, :meth:`Rule.check`, which receives the
:class:`~repro.lint.project.ProjectContext` the engine builds once per run
(every parsed module, plus the symbol table, import graph and call graph).
Module-local rules loop over ``project.modules`` themselves; cross-module
rules query the context.  Rules are instantiated fresh per lint run.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from ..errors import ConfigError
from .findings import Finding, SuppressionMap


@dataclass
class Module:
    """One parsed source file as the rules see it."""

    path: str  # as given on the command line (relative paths stay relative)
    source: str
    tree: ast.Module
    suppressions: SuppressionMap

    @property
    def package_parts(self) -> tuple[str, ...]:
        """Path components, normalized for package-membership tests."""
        return tuple(part for part in self.path.replace("\\", "/").split("/") if part)

    def in_package(self, *names: str) -> bool:
        """True when the module lives under any of the given directories."""
        return any(name in self.package_parts[:-1] for name in names)

    @property
    def filename(self) -> str:
        return self.package_parts[-1] if self.package_parts else self.path


class Rule:
    """Base rule.  Subclasses set ``code``/``name``/``summary``."""

    code: str = ""
    name: str = ""
    summary: str = ""

    def check(self, project) -> Iterator[Finding]:
        """Yield findings for the scanned project.

        ``project`` is a :class:`~repro.lint.project.ProjectContext`
        (untyped here to keep the registry import-light).
        """
        raise NotImplementedError

    def finding(
        self, module: Module, node: ast.AST | None, message: str,
        *, line: int | None = None,
    ) -> Finding:
        """Build a finding anchored at an AST node (or an explicit line)."""
        if line is None:
            line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1 if node is not None else 1
        return Finding(module.path, line, col, self.code, message)


#: code -> rule class, in registration order.
RULES: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator: add a rule to the global registry."""
    if not rule_cls.code:
        raise ConfigError(f"rule {rule_cls.__name__} has no code")
    if rule_cls.code in RULES:
        raise ConfigError(f"duplicate rule code {rule_cls.code}")
    RULES[rule_cls.code] = rule_cls
    return rule_cls


def select_rules(codes: Iterable[str] | None = None) -> list[Rule]:
    """Instantiate the requested rules (default: all registered)."""
    if codes is None:
        return [rule_cls() for rule_cls in RULES.values()]
    wanted = []
    for code in codes:
        code = code.strip().upper()
        if code not in RULES:
            raise ConfigError(
                f"unknown rule {code!r}; known: {', '.join(sorted(RULES))}"
            )
        wanted.append(RULES[code]())
    return wanted
