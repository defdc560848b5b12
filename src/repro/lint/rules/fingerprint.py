"""RPR002 — cache-fingerprint completeness.

``repro.sim.parallel`` memoizes whole simulation runs on disk, keyed by
:func:`spec_fingerprint`.  The cache is sound only if *every* field of
``RunSpec`` participates in the key: a field that changes
behavior but not the fingerprint returns a stale result for a fresh
configuration — the worst kind of wrong, because it looks exactly like a
fast correct run.

This rule cross-checks, statically, the dataclass fields of every
``*Spec`` class against the ``spec.<field>`` attribute reads inside
``spec_fingerprint`` in the same module.  Adding a field without keying it
(plus a ``CACHE_SCHEMA`` bump, per DESIGN.md §9) fails the lint.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..findings import Finding
from ..project import ProjectContext
from ..registry import Module, Rule, register

#: Class names treated as cache-keyed specs.
SPEC_CLASSES = frozenset({"RunSpec"})


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name == "dataclass":
            return True
    return False


def _spec_fields(node: ast.ClassDef) -> list[tuple[str, int]]:
    """(field name, line) for every annotated dataclass field."""
    fields = []
    for statement in node.body:
        if isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            fields.append((statement.target.id, statement.lineno))
    return fields


def _fingerprinted_attrs(func: ast.FunctionDef) -> set[str]:
    """Attributes read off the spec parameter inside the fingerprint fn."""
    if not func.args.args:
        return set()
    spec_param = func.args.args[0].arg
    reads: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == spec_param:
                reads.add(node.attr)
    return reads


@register
class FingerprintRule(Rule):
    code = "RPR002"
    name = "fingerprint-completeness"
    summary = (
        "every RunSpec field must be read by spec_fingerprint "
        "(unkeyed fields serve stale cache entries)"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for info in project.modules:
            yield from self._check_module(info.module)

    def _check_module(self, module: Module) -> Iterator[Finding]:
        specs = [
            node for node in module.tree.body
            if isinstance(node, ast.ClassDef)
            and node.name in SPEC_CLASSES
            and _is_dataclass_decorated(node)
        ]
        if not specs:
            return
        fingerprint = next(
            (
                node for node in module.tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "spec_fingerprint"
            ),
            None,
        )
        if fingerprint is None:
            for spec in specs:
                yield self.finding(
                    module, spec,
                    f"{spec.name} is defined but this module has no "
                    "spec_fingerprint() to key it; the run cache cannot "
                    "be checked for completeness",
                )
            return
        keyed = _fingerprinted_attrs(fingerprint)
        for spec in specs:
            for field_name, line in _spec_fields(spec):
                if field_name not in keyed:
                    yield self.finding(
                        module, None,
                        f"{spec.name}.{field_name} is not read by "
                        "spec_fingerprint(); an unkeyed field serves stale "
                        "cache entries — key it and bump CACHE_SCHEMA",
                        line=line,
                    )
