"""RPR009 — SoA bank-shape consistency across allocate / take / split.

The lock-step kernel's structure-of-arrays banks (``EwmaBank``,
``BatchUsageMonitor``, ``BatchCrossingDetector``, ``LaneRngBank``, the
``Cohort`` slots) all follow one clone protocol: ``__init__`` allocates
per-lane arrays, and a clone method builds a sibling via
``SomeClass.__new__`` and gathers each field with fancy indexing.  A field
added to ``__init__`` but forgotten in ``take()``/``split()`` leaves the
child bank with a dangling ``AttributeError`` — or worse, silently shared
state — that only surfaces when a cohort actually splits on that path.

For every guarded-package class owning a ``__new__``-style clone method,
this rule cross-checks:

* every *array* field allocated in ``__init__`` (``self.x = np.zeros(...)``
  and friends) must be assigned on the clone — directly
  (``clone.x = self.x[indices]``) or through a ``setattr`` loop whose
  field list resolves through the constant lattice (the ``_ARRAY_FIELDS``
  pattern);
* every name in such a resolved field list must actually be allocated in
  ``__init__`` (no stale entries);
* a clone-side re-allocation must keep the ``__init__`` dtype (textual
  comparison of the ``dtype=`` argument).

A clone method containing an *unresolvable* ``setattr`` loop is skipped
rather than guessed at.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..findings import Finding
from ..registry import Rule, register
from ..project import ModuleInfo, ProjectContext, UNKNOWN, const_eval
from .determinism import GUARDED_PACKAGES, attr_chain

#: numpy constructors whose result is a per-lane array field.
_ALLOC_FNS = frozenset({
    "zeros", "ones", "full", "empty", "array", "asarray", "arange",
    "zeros_like", "ones_like", "full_like", "empty_like", "ldexp",
    "linspace", "tile", "repeat",
})


def _is_array_alloc(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    chain = attr_chain(node.func)
    return (
        len(chain) >= 2
        and chain[0] in ("np", "numpy")
        and chain[-1] in _ALLOC_FNS
    )


def _dtype_text(node: ast.expr) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    for kw in node.keywords:
        if kw.arg == "dtype":
            return ast.dump(kw.value)
    return None


def _init_fields(init: ast.FunctionDef) -> dict[str, tuple[bool, str | None, int]]:
    """self.NAME assignments in __init__: name -> (is_array, dtype, line)."""
    fields: dict[str, tuple[bool, str | None, int]] = {}
    for node in ast.walk(init):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            value = node.value
            if value is None:
                continue
            for tgt in targets:
                if (
                    isinstance(tgt, ast.Attribute)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id == "self"
                    and tgt.attr not in fields
                ):
                    fields[tgt.attr] = (
                        _is_array_alloc(value), _dtype_text(value), node.lineno
                    )
    return fields


def _clone_var(method: ast.FunctionDef, class_name: str) -> str | None:
    """The local bound to ``Cls.__new__(Cls)`` / ``object.__new__(Cls)``."""
    for node in ast.walk(method):
        if not isinstance(node, ast.Assign) or not isinstance(
            node.value, ast.Call
        ):
            continue
        chain = attr_chain(node.value.func)
        if len(chain) == 2 and chain[1] == "__new__" and chain[0] in (
            "object", class_name,
        ):
            tgt = node.targets[0]
            if isinstance(tgt, ast.Name):
                return tgt.id
    return None


def _resolve_field_list(
    info: ModuleInfo, method: ast.FunctionDef, node: ast.expr
) -> tuple[str, ...] | None:
    """A for-loop iterable as a tuple of field names, via the lattice."""
    env = dict(info.constants)
    # Local constant bindings in the clone method shadow module ones.
    for stmt in ast.walk(method):
        if isinstance(stmt, ast.Assign) and isinstance(
            stmt.targets[0], ast.Name
        ):
            value = const_eval(stmt.value, env)
            if value is not UNKNOWN:
                env[stmt.targets[0].id] = value
    value = const_eval(node, env)
    if value is UNKNOWN or not isinstance(value, (tuple, list)):
        return None
    if not all(isinstance(item, str) for item in value):
        return None
    return tuple(value)


def _covered_fields(
    info: ModuleInfo, method: ast.FunctionDef, clone: str
) -> tuple[set[str], dict[str, str | None], bool, list[tuple[str, ...]]]:
    """(covered names, clone-side dtypes, fully-resolved?, field lists)."""
    covered: set[str] = set()
    dtypes: dict[str, str | None] = {}
    resolved = True
    field_lists: list[tuple[str, ...]] = []
    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                if (
                    isinstance(tgt, ast.Attribute)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id == clone
                ):
                    covered.add(tgt.attr)
                    dtype = _dtype_text(node.value)
                    if dtype is not None:
                        dtypes[tgt.attr] = dtype
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "setattr":
                if len(node.args) >= 2 and isinstance(
                    node.args[0], ast.Name
                ) and node.args[0].id == clone:
                    key = node.args[1]
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, str
                    ):
                        covered.add(key.value)
                    elif isinstance(key, ast.Name):
                        # The ``for name in _ARRAY_FIELDS`` pattern: find
                        # the loop binding this name and resolve its
                        # iterable through the constant lattice.
                        names = _loop_iterable(info, method, key.id)
                        if names is None:
                            resolved = False
                        else:
                            covered.update(names)
                            field_lists.append(names)
                    else:
                        resolved = False
    return covered, dtypes, resolved, field_lists


def _loop_iterable(
    info: ModuleInfo, method: ast.FunctionDef, var: str
) -> tuple[str, ...] | None:
    for node in ast.walk(method):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            if node.target.id == var:
                return _resolve_field_list(info, method, node.iter)
    return None


@register
class BankShapeRule(Rule):
    code = "RPR009"
    name = "bank-shape"
    summary = (
        "SoA bank classes must allocate, take()-gather, and "
        "split()-partition the same array fields with the same dtypes"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for info in project.modules:
            if not info.module.in_package(*GUARDED_PACKAGES):
                continue
            for class_name in sorted(info.classes):
                yield from self._check_class(info, class_name)

    def _check_class(
        self, info: ModuleInfo, class_name: str
    ) -> Iterator[Finding]:
        cls = info.classes[class_name]
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, ast.FunctionDef)
        }
        init = methods.get("__init__")
        if init is None:
            return
        clones = {
            name: (method, _clone_var(method, class_name))
            for name, method in sorted(methods.items())
            if name != "__init__" and _clone_var(method, class_name) is not None
        }
        if not clones:
            return
        fields = _init_fields(init)
        array_fields = {
            name for name, (is_array, _d, _l) in fields.items() if is_array
        }
        for method_name, (method, clone) in clones.items():
            assert clone is not None
            covered, dtypes, resolved, field_lists = _covered_fields(
                info, method, clone
            )
            for names in field_lists:
                for name in names:
                    if name not in fields:
                        yield self.finding(
                            info.module, method,
                            f"{class_name}.{method_name}() gathers field "
                            f"'{name}' that {class_name}.__init__ never "
                            "allocates; stale entry in the field list",
                        )
            if resolved:
                for name in sorted(array_fields - covered):
                    yield self.finding(
                        info.module, method,
                        f"{class_name}.{method_name}() does not carry array "
                        f"field '{name}' allocated in __init__ (line "
                        f"{fields[name][2]}); a split/gather would hand out "
                        "a bank missing per-lane state",
                    )
            for name, dtype in sorted(dtypes.items()):
                original = fields.get(name)
                if (
                    original is not None
                    and original[1] is not None
                    and dtype != original[1]
                ):
                    yield self.finding(
                        info.module, method,
                        f"{class_name}.{method_name}() re-allocates "
                        f"'{name}' with a different dtype than __init__ "
                        f"(line {original[2]}); gathered banks must keep "
                        "their dtype",
                    )
