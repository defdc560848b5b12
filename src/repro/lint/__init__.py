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
RPR005    threshold-ordering              lower < upper < emergency ladder
RPR007    transitive-determinism-taint    no ambient reads through helpers
RPR008    payload-schema                  one key set per EventType emit
========  ==============================  ==================================

RPR001–RPR005 are per-module checks; RPR007 and RPR008 query the shared
:class:`~repro.lint.project.ProjectContext` (cross-module symbol table,
import graph, call graph) built once per run.  RPR006 (twin-path drift)
and the bank-shape rule after it are retired: the scalar/vector pairs
and the usage-monitor bank they guarded are gone.

See ``docs/linting.md`` for the full catalog, rationale, the
``# repro: noqa(CODE) reason`` suppression syntax, and the baseline
workflow.
"""

from __future__ import annotations

from .baseline import Baseline
from .engine import LintConfig, LintResult, run_lint
from .findings import Finding, SuppressionMap
from .project import ProjectContext
from .registry import RULES, Module, Rule, register
from . import rules  # noqa: F401  (imports register every rule)
from .report import render_json, render_sarif, render_text

__all__ = [
    "Baseline",
    "Finding",
    "LintConfig",
    "LintResult",
    "Module",
    "ProjectContext",
    "RULES",
    "Rule",
    "SuppressionMap",
    "register",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
]
