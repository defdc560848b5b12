"""RPR003 — paper-constant hygiene.

The paper's operating points (the 354/356.5/358 K temperature ladder, the
EWMA factor x = 1/128, the 1000-cycle sample interval) each have exactly
one canonical definition site — ``repro/config.py`` (and the claim registry
``repro/paper.py``).  A second copy of any of them is how reproductions rot:
someone retunes the canonical value, the stray literal keeps the old one,
and every figure downstream is silently wrong by one constant.

This rule flags the literals themselves, so the fix is always "import the
named constant".  Docstrings and comments are naturally exempt (they are
not numeric literals).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ...config import (
    EMERGENCY_TEMPERATURE_K,
    LOWER_THRESHOLD_K,
    NORMAL_OPERATING_K,
    UPPER_THRESHOLD_K,
)
from ..findings import Finding
from ..project import ProjectContext
from ..registry import Module, Rule, register

#: Files allowed to define paper constants.
CANONICAL_FILES = frozenset({"config.py", "paper.py"})

#: The Kelvin operating points: this reproduction's calibrated ladder
#: (imported from its canonical site, so the checker can never disagree
#: with the config) plus the paper's original unscaled thresholds, which a
#: careless edit is most likely to re-introduce verbatim.
KELVIN_CONSTANTS = frozenset({
    NORMAL_OPERATING_K,
    LOWER_THRESHOLD_K,
    UPPER_THRESHOLD_K,
    EMERGENCY_TEMPERATURE_K,
    355.0,  # repro: noqa(RPR003) the paper's lower threshold: a detection target
    356.0,  # repro: noqa(RPR003) the paper's upper threshold: a detection target
})

#: The paper's EWMA blending factor x = 1/128.
EWMA_X = 1.0 / 128.0  # repro: noqa(RPR003) the canonical reference value

#: Integer constants flagged only in a telltale binding context (they are
#: too common to flag unconditionally): name -> required substring of the
#: target/keyword name.
CONTEXT_INTS = {1000: "sample_interval", 128: "ewma"}


def _number(node: ast.expr) -> float | None:
    """The numeric value of a literal (including ``-x`` and ``1/128``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _number(node.operand)
        return -inner if inner is not None else None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        left, right = _number(node.left), _number(node.right)
        if left is not None and right not in (None, 0.0):
            return left / right
    return None


@register
class PaperConstantRule(Rule):
    code = "RPR003"
    name = "paper-constant-hygiene"
    summary = (
        "paper constants (Kelvin thresholds, EWMA x=1/128, sample "
        "intervals) duplicated outside repro/config.py"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for info in project.modules:
            if info.module.filename not in CANONICAL_FILES:
                yield from self._check_module(info.module)

    def _check_module(self, module: Module) -> Iterator[Finding]:
        context: dict[int, str] = {}  # id(literal node) -> binding name
        for node in ast.walk(module.tree):
            if isinstance(node, ast.keyword) and node.arg:
                context[id(node.value)] = node.arg
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    context[id(node.value)] = node.target.id
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    context[id(node.value)] = target.id
        for node in ast.walk(module.tree):
            value = _number(node) if isinstance(node, (ast.Constant, ast.BinOp)) else None
            if value is None:
                continue
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                if node.value in KELVIN_CONSTANTS:
                    yield self.finding(
                        module, node,
                        f"Kelvin operating point {node.value!r} duplicated "
                        "outside repro/config.py; import the named constant "
                        "(e.g. UPPER_THRESHOLD_K) instead",
                    )
                    continue
            if value == EWMA_X:
                yield self.finding(
                    module, node,
                    "EWMA factor 1/128 hard-coded; derive it from "
                    "SedationConfig.ewma_x so the scaled presets stay "
                    "consistent",
                )
                continue
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, int)
                and node.value in CONTEXT_INTS
            ):
                binding = context.get(id(node))
                if binding and CONTEXT_INTS[node.value] in binding:
                    yield self.finding(
                        module, node,
                        f"paper interval {node.value} bound to "
                        f"{binding!r} outside repro/config.py; take it "
                        "from the config preset instead",
                    )
