"""Repo-specific static analysis (``python -m repro.lint``).

A small AST-based lint framework plus the rules that guard this
reproduction's correctness-critical invariants:

========  ==============================  ==================================
code      name                            guards
========  ==============================  ==================================
RPR001    determinism-hazard              run-cache purity (no ambient state)
RPR002    fingerprint-completeness        every spec field keys the cache
RPR003    paper-constant-hygiene          one canonical site per paper constant
RPR004    telemetry-coverage              no dead or undefined event types
RPR007    transitive-determinism-taint    no ambient reads through helpers
RPR008    payload-schema                  one key set per EventType emit
========  ==============================  ==================================

Every rule implements one hook, ``check(project)``, over the shared
:class:`~repro.lint.project.ProjectContext` (every parsed module plus the
cross-module symbol table, import graph and call graph) built once per
run.  RPR005 (threshold ordering), RPR006 (twin-path drift) and RPR009
(bank shapes) are retired: the sedation ladder is checked directly by
``tests/test_config.py``, and the scalar/vector pairs and the usage-monitor
bank the other two guarded are gone.

See ``docs/linting.md`` for the full catalog, rationale and the
``# repro: noqa(CODE) reason`` suppression syntax.
"""

from __future__ import annotations

from .engine import LintResult, run_lint
from .findings import Finding, SuppressionMap
from .project import ProjectContext
from .registry import RULES, Module, Rule, register
from . import rules  # noqa: F401  (imports register every rule)
from .report import render_sarif, render_text

__all__ = [
    "Finding",
    "LintResult",
    "Module",
    "ProjectContext",
    "RULES",
    "Rule",
    "SuppressionMap",
    "register",
    "render_sarif",
    "render_text",
    "run_lint",
]
