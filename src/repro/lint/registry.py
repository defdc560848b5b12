"""Rule registry: one class per rule code, discovered by the engine.

A rule sees every scanned module once (:meth:`Rule.check_module`) and gets
one :meth:`Rule.finalize` call after the walk, where cross-file rules (the
telemetry-coverage check, for instance) reconcile what they saw.  Rules
that need whole-program structure implement :meth:`Rule.check_project`
instead and query the :class:`~repro.lint.project.ProjectContext` (symbol
table, import graph, call graph) the engine builds once per run.  Rules
are instantiated fresh per lint run, so accumulated state never leaks
between runs.
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

    def check_module(self, module: Module) -> Iterator[Finding]:
        """Yield findings for one module."""
        return iter(())

    def finalize(self) -> Iterator[Finding]:
        """Yield cross-module findings once every module has been seen."""
        return iter(())

    def check_project(self, project) -> Iterator[Finding]:
        """Yield findings against the shared whole-program context.

        ``project`` is a :class:`~repro.lint.project.ProjectContext`
        (untyped here to keep the registry import-light).
        """
        return iter(())

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


def select_rules(
    select: Iterable[str] | None = None, ignore: Iterable[str] = ()
) -> list[Rule]:
    """Instantiate the requested rules (default: all registered)."""
    ignored = {code.upper() for code in ignore}
    if select is None:
        wanted = list(RULES)
    else:
        wanted = []
        for code in select:
            code = code.upper()
            if code not in RULES:
                raise ConfigError(
                    f"unknown rule {code!r}; known: {', '.join(sorted(RULES))}"
                )
            wanted.append(code)
    return [RULES[code]() for code in wanted if code not in ignored]
