"""RPR004 — telemetry coverage.

The event stream is the observable record of a run (DESIGN.md §10): the
CLI, the summary narrative, and the legacy-trace adapter all key off
:class:`EventType` members.  Two drift modes are cheap to catch statically:

* an ``EventType`` member that no code ever emits — a dead event type,
  usually the residue of a refactor, which silently blinds any consumer
  waiting for it;
* an ``emit(EventType.TYPO, ...)`` against a member that does not exist —
  a latent ``AttributeError`` on a code path that may only fire under an
  attack workload.

The missing-emit half of the rule only activates when the scanned file set
includes both the ``EventType`` definition and at least one emit call, so
linting a single module never produces phantom "nothing emits X" findings.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..findings import Finding
from ..project import ProjectContext
from ..registry import Module, Rule, register


def _event_attr(node: ast.expr) -> str | None:
    """``EventType.X`` -> ``"X"``; anything else -> None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "EventType":
            return node.attr
    return None


@register
class TelemetryCoverageRule(Rule):
    code = "RPR004"
    name = "telemetry-coverage"
    summary = (
        "every EventType member has an emit site, and no emit references "
        "an undefined member"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        # member name -> (module, line) of its definition
        defined: dict[str, tuple[Module, int]] = {}
        definition_module: Module | None = None
        # member names seen as the first argument of an .emit(...) call
        emitted: set[str] = set()
        # every EventType.<attr> use: (module, node, attr)
        uses: list[tuple[Module, ast.Attribute, str]] = []
        for info in project.modules:
            module = info.module
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and node.name == "EventType":
                    definition_module = module
                    for statement in node.body:
                        if isinstance(statement, ast.Assign):
                            for target in statement.targets:
                                if isinstance(target, ast.Name):
                                    defined[target.id] = (
                                        module, statement.lineno
                                    )
                elif isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr == "emit"
                        and node.args
                    ):
                        member = _event_attr(node.args[0])
                        if member is not None:
                            emitted.add(member)
                elif isinstance(node, ast.Attribute):
                    member = _event_attr(node)
                    if member is not None:
                        uses.append((module, node, member))

        if definition_module is None:
            return
        for module, node, member in uses:
            if member not in defined and not member.startswith("__"):
                yield self.finding(
                    module, node,
                    f"EventType.{member} is not defined in "
                    f"{definition_module.path}; this emit/reference "
                    "would raise AttributeError at runtime",
                )
        if not emitted:
            return  # single-module lint: no emit sites in scope
        for member, (module, line) in sorted(defined.items()):
            if member not in emitted:
                yield self.finding(
                    module, None,
                    f"EventType.{member} has no emit site in the scanned "
                    "files; dead event types blind every consumer that "
                    "filters on them",
                    line=line,
                )
