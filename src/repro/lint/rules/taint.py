"""RPR007 — transitive determinism taint through the call graph.

RPR001 flags ambient-state reads (wall clock, global RNG, ``os.environ``)
*syntactically*, but only inside the fingerprinted packages — a guarded
function that routes the same read through a helper in a non-guarded
module (a workload registry, an analysis utility) slips through, and the
run cache silently keys on state that is not in the fingerprint.

This rule walks the project call graph: a non-guarded function is
*tainted* when it contains an unsuppressed hazard or calls a tainted
non-guarded function.  Every call from a guarded-package function into a
tainted helper is a finding, anchored at the call site, with the helper
chain down to the concrete hazard spelled out.

Boundaries are deliberate:

* hazards *inside* guarded packages are RPR001's business — either it
  fires (fix the root, every caller is clean again) or the site carries a
  reasoned ``# repro: noqa(RPR001)`` and is sanctioned, so it must not
  re-taint callers transitively;
* a ``# repro: noqa(RPR007)`` on the hazard line of a non-guarded helper
  sanctions that helper for all guarded callers;
* taint stops at the first guarded function — callers of an already
  findable function are not re-reported.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..findings import Finding
from ..registry import Rule, register
from ..project import FunctionInfo, ProjectContext
from .determinism import GUARDED_PACKAGES, iter_hazards


def _is_guarded(fi: FunctionInfo) -> bool:
    return fi.module.in_package(*GUARDED_PACKAGES)


def _direct_hazards(fi: FunctionInfo) -> list[tuple[ast.AST, str]]:
    """Unsuppressed hazards inside one function: (node, short label)."""
    hazards = []
    suppressions = fi.module.suppressions
    for node, label, _message in iter_hazards(fi.node):
        line = getattr(node, "lineno", fi.node.lineno)
        if suppressions.suppresses(line, "RPR001"):
            continue
        if suppressions.suppresses(line, "RPR007"):
            continue
        hazards.append((node, label))
    return hazards


@register
class TransitiveTaintRule(Rule):
    code = "RPR007"
    name = "transitive-determinism-taint"
    summary = (
        "fingerprinted-package functions that reach wall-clock / global-RNG "
        "/ environment reads through helpers outside the guarded packages"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        # taint witness per non-guarded function: (label, [qualname chain])
        memo: dict[str, tuple[str, list[str]] | None] = {}

        def taint(qual: str, stack: frozenset[str]) -> tuple[str, list[str]] | None:
            if qual in memo:
                return memo[qual]
            if qual in stack:
                return None  # recursion cycle: no new information
            fi = project.functions.get(qual)
            if fi is None or _is_guarded(fi):
                return None  # guarded functions are a taint barrier
            direct = _direct_hazards(fi)
            if direct:
                witness = (direct[0][1], [qual])
                memo[qual] = witness
                return witness
            stack = stack | {qual}
            for callee, _call in project.call_graph.get(qual, ()):
                hit = taint(callee, stack)
                if hit is not None:
                    witness = (hit[0], [qual, *hit[1]])
                    memo[qual] = witness
                    return witness
            memo[qual] = None
            return None

        for qual in sorted(project.call_graph):
            fi = project.functions.get(qual)
            if fi is None or not _is_guarded(fi):
                continue
            for callee, call in project.call_graph[qual]:
                hit = taint(callee, frozenset())
                if hit is None:
                    continue
                label, chain = hit
                shorts = [
                    project.functions[q].short if q in project.functions else q
                    for q in chain
                ]
                yield self.finding(
                    fi.module, call,
                    f"{fi.short}() reaches {label} through "
                    f"{' -> '.join(shorts)}; ambient state is not part of "
                    "the cache fingerprint — thread the value through the "
                    "config instead",
                )
