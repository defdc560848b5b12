"""Project-wide analysis context shared by every rule.

It holds every parsed module, and one pass over them builds four
queryable structures:

* a **symbol table** — every function/method under a stable qualified name
  (``<dotted module>::Class.method``), plus per-module class bindings;
* an **import graph** — what each module binds each local name to,
  resolving relative imports against the module's dotted name and absolute
  imports against the scanned set (suffix match, so the table works both
  for ``src/repro/...`` and for test fixture trees);
* a **call graph** — conservative edges from callers to the project
  functions they invoke (same-module names, ``self.method``, imported
  symbols, imported-module attributes; anything else is left unresolved
  rather than guessed);
* a **dict-shape analysis** — intraprocedural key schemas for
  payload-style locals.

Every rule receives the finished :class:`ProjectContext` through its one
``check`` hook: module-local rules loop over ``modules``, cross-module
rules query the tables.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .registry import Module


def module_dotted_name(module: Module) -> str:
    """A stable dotted name for a module, derived from its path.

    Paths under a ``repro`` package root are rooted there
    (``src/repro/dtm/dvfs.py`` -> ``repro.dtm.dvfs``); anything else uses
    the full path components, which keeps fixture trees self-consistent
    for relative-import resolution.
    """
    parts = list(module.package_parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    return ".".join(part for part in parts if part)


@dataclass
class FunctionInfo:
    """One function or method, addressable across the whole project."""

    qualname: str  # "<dotted module>::<local qualname>"
    local_qualname: str  # "func" or "Class.method"
    module: Module
    dotted: str  # owning module's dotted name
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None

    @property
    def short(self) -> str:
        return self.local_qualname


@dataclass
class ModuleInfo:
    """Per-module slice of the project context."""

    module: Module
    dotted: str
    #: local qualname -> FunctionInfo for every def in the module.
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: class name -> ClassDef node (top level only).
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)
    #: local name -> ("module", dotted) | ("symbol", dotted, original name)
    imports: dict[str, tuple] = field(default_factory=dict)


@dataclass
class DictShape:
    """What we know statically about one dict variable's key schema."""

    required: set[str] = field(default_factory=set)
    optional: set[str] = field(default_factory=set)
    #: key -> set of coarse value kinds ("str", "num", "bool", "none", "any")
    kinds: dict[str, set[str]] = field(default_factory=dict)
    dynamic: bool = False  # ``**`` unpack, opaque update(), or reassignment

    def add_key(self, key: str, kind: str, *, conditional: bool) -> None:
        if conditional:
            if key not in self.required:
                self.optional.add(key)
        else:
            self.required.add(key)
            self.optional.discard(key)
        self.kinds.setdefault(key, set()).add(kind)


def value_kind(node: ast.expr) -> str:
    """Coarse value classification for payload schema comparison."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool):
            return "bool"
        if isinstance(node.value, (int, float)):
            return "num"
        if isinstance(node.value, str):
            return "str"
        if node.value is None:
            return "none"
        return "any"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("int", "float", "round", "len", "abs"):
            return "num"
        if node.func.id == "str":
            return "str"
        if node.func.id == "bool":
            return "bool"
    if isinstance(node, ast.JoinedStr):
        return "str"
    return "any"


def dict_literal_shape(node: ast.Dict, *, conditional: bool = False) -> DictShape:
    shape = DictShape()
    for key, value in zip(node.keys, node.values):
        if key is None:  # ``**other`` unpack
            shape.dynamic = True
        elif isinstance(key, ast.Constant) and isinstance(key.value, str):
            shape.add_key(key.value, value_kind(value), conditional=conditional)
        else:
            shape.dynamic = True
    return shape


def dict_shape_at(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    name: str,
    target: ast.AST,
) -> DictShape | None:
    """Shape of local dict ``name`` when control reaches ``target``.

    A tiny abstract interpretation over the function body: dict literals
    seed the shape, ``d[k] = v`` and ``d.update({...})`` extend it, and any
    assignment inside a branch/loop marks its keys optional.  Opaque
    updates, ``**`` unpacks, and reassignment to a non-literal make the
    shape dynamic.  Returns ``None`` when ``name`` was never bound to a
    dict literal before ``target``.
    """
    state: dict[str, object] = {}
    found = _walk_dict_flow(func.body, name, target, state, conditional=False)
    if not found:
        return None
    shape = state.get(name)
    return shape if isinstance(shape, DictShape) else None


def _walk_dict_flow(
    stmts: list[ast.stmt],
    name: str,
    target: ast.AST,
    state: dict[str, object],
    *,
    conditional: bool,
) -> bool:
    """Apply statements to ``state`` until ``target`` is reached.

    Returns True once the statement containing ``target`` has been seen
    (the snapshot is taken *before* that statement mutates the state).
    """
    for stmt in stmts:
        if _contains(stmt, target):
            # Descend first: the target may live inside a nested branch
            # whose preceding statements still apply.
            for block in _sub_blocks(stmt):
                if any(_contains(s, target) for s in block):
                    _apply_stmt_shallow(stmt, name, state, conditional=conditional)
                    return _walk_dict_flow(
                        block, name, target, state, conditional=True
                    )
            return True
        _apply_stmt(stmt, name, state, conditional=conditional)
    return False


def _contains(stmt: ast.stmt, target: ast.AST) -> bool:
    return any(node is target for node in ast.walk(stmt))


def _sub_blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
    blocks = []
    for attr in ("body", "orelse", "finalbody"):
        block = getattr(stmt, attr, None)
        if block and all(isinstance(s, ast.stmt) for s in block):
            blocks.append(block)
    for handler in getattr(stmt, "handlers", ()) or ():
        blocks.append(handler.body)
    return blocks


def _apply_stmt_shallow(
    stmt: ast.stmt, name: str, state: dict[str, object], *, conditional: bool
) -> None:
    """Apply only the statement's own effect (not its sub-blocks)."""
    if isinstance(stmt, (ast.If, ast.For, ast.While, ast.With, ast.Try)):
        return
    _apply_stmt(stmt, name, state, conditional=conditional, recurse=False)


def _apply_stmt(
    stmt: ast.stmt,
    name: str,
    state: dict[str, object],
    *,
    conditional: bool,
    recurse: bool = True,
) -> None:
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        value = stmt.value
        for tgt in targets:
            if isinstance(tgt, ast.Name) and tgt.id == name:
                if isinstance(value, ast.Dict):
                    shape = dict_literal_shape(value)
                    if conditional:
                        # A rebind inside a branch: merge conservatively.
                        shape.optional |= shape.required
                        shape.required = set()
                        prior = state.get(name)
                        if isinstance(prior, DictShape):
                            shape.optional |= prior.required | prior.optional
                            shape.dynamic |= prior.dynamic
                            for key, kinds in prior.kinds.items():
                                shape.kinds.setdefault(key, set()).update(kinds)
                    state[name] = shape
                elif value is not None:
                    marker = DictShape(dynamic=True)
                    state[name] = marker
            elif isinstance(tgt, ast.Subscript) and (
                isinstance(tgt.value, ast.Name) and tgt.value.id == name
            ):
                shape = state.get(name)
                if isinstance(shape, DictShape):
                    key = tgt.slice
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        shape.add_key(
                            key.value, value_kind(value), conditional=conditional
                        )
                    else:
                        shape.dynamic = True
    elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        call = stmt.value
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == name
            and func.attr in ("update", "setdefault", "pop", "clear")
        ):
            shape = state.get(name)
            if isinstance(shape, DictShape):
                if (
                    func.attr == "update"
                    and len(call.args) == 1
                    and not call.keywords
                    and isinstance(call.args[0], ast.Dict)
                ):
                    merged = dict_literal_shape(
                        call.args[0], conditional=conditional
                    )
                    shape.required |= merged.required
                    shape.optional |= merged.optional
                    shape.dynamic |= merged.dynamic
                    for key, kinds in merged.kinds.items():
                        shape.kinds.setdefault(key, set()).update(kinds)
                else:
                    shape.dynamic = True
    if recurse:
        for block in _sub_blocks(stmt):
            for sub in block:
                _apply_stmt(sub, name, state, conditional=True)


class ProjectContext:
    """Everything the rules query, built in one pass."""

    def __init__(self, modules: list[Module]):
        self.modules: list[ModuleInfo] = []
        self.by_dotted: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: caller qualname -> list of (callee qualname, call node)
        self.call_graph: dict[str, list[tuple[str, ast.Call]]] = {}

        for module in modules:
            info = self._index_module(module)
            self.modules.append(info)
            self.by_dotted[info.dotted] = info
        for info in self.modules:
            self._resolve_calls(info)

    # -- symbol table -------------------------------------------------

    def _index_module(self, module: Module) -> ModuleInfo:
        info = ModuleInfo(module=module, dotted=module_dotted_name(module))
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(info, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                info.classes[stmt.name] = stmt
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add_function(info, sub, class_name=stmt.name)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self._add_import(info, stmt)
        return info

    def _add_function(
        self,
        info: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
    ) -> None:
        local = f"{class_name}.{node.name}" if class_name else node.name
        fi = FunctionInfo(
            qualname=f"{info.dotted}::{local}",
            local_qualname=local,
            module=info.module,
            dotted=info.dotted,
            node=node,
            class_name=class_name,
        )
        info.functions[local] = fi
        self.functions[fi.qualname] = fi

    def _add_import(self, info: ModuleInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                info.imports[local] = ("module", target)
        elif isinstance(stmt, ast.ImportFrom):
            base = self._resolve_from_base(info, stmt)
            if base is None:
                return
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.imports[local] = ("symbol", base, alias.name)

    def _resolve_from_base(
        self, info: ModuleInfo, stmt: ast.ImportFrom
    ) -> str | None:
        if stmt.level == 0:
            return stmt.module
        parts = info.dotted.split(".")
        # level 1 = current package (drop the module segment), each extra
        # level climbs one more package.
        if stmt.level > len(parts):
            return None
        base_parts = parts[: len(parts) - stmt.level]
        if stmt.module:
            base_parts.extend(stmt.module.split("."))
        return ".".join(base_parts) if base_parts else None

    def find_module(self, dotted: str | None) -> ModuleInfo | None:
        """Exact dotted-name match, else unambiguous suffix match."""
        if not dotted:
            return None
        hit = self.by_dotted.get(dotted)
        if hit is not None:
            return hit
        suffix = "." + dotted
        candidates = [
            info for name, info in self.by_dotted.items() if name.endswith(suffix)
        ]
        return candidates[0] if len(candidates) == 1 else None

    # -- call graph ---------------------------------------------------

    def _resolve_calls(self, info: ModuleInfo) -> None:
        for fi in info.functions.values():
            edges: list[tuple[str, ast.Call]] = []
            for node in ast.walk(fi.node):
                if not isinstance(node, ast.Call):
                    continue
                callee = self._resolve_callee(info, fi, node.func)
                if callee is not None:
                    edges.append((callee.qualname, node))
            self.call_graph[fi.qualname] = edges

    def _resolve_callee(
        self, info: ModuleInfo, caller: FunctionInfo, func: ast.expr
    ) -> FunctionInfo | None:
        if isinstance(func, ast.Name):
            local = info.functions.get(func.id)
            if local is not None:
                return local
            bound = info.imports.get(func.id)
            if bound is not None and bound[0] == "symbol":
                target = self.find_module(bound[1])
                if target is not None:
                    return target.functions.get(bound[2])
            return None
        if not isinstance(func, ast.Attribute):
            return None
        chain = attr_chain(func)
        if not chain:
            return None
        if chain[0] in ("self", "cls") and len(chain) == 2 and caller.class_name:
            method = info.functions.get(f"{caller.class_name}.{chain[1]}")
            if method is not None:
                return method
            # One level of base-class lookup within the project.
            cls = info.classes.get(caller.class_name)
            if cls is not None:
                for base in cls.bases:
                    base_fi = self._resolve_base_method(info, base, chain[1])
                    if base_fi is not None:
                        return base_fi
            return None
        bound = info.imports.get(chain[0])
        if bound is None:
            return None
        if bound[0] == "module":
            # ``import pkg.mod`` / ``import mod``: walk the chain through
            # progressively longer module names, then a function, then
            # optionally a method on a class defined there.
            for split in range(1, len(chain)):
                dotted = ".".join([bound[1], *chain[1:split]])
                target = self.find_module(dotted)
                if target is None:
                    continue
                rest = chain[split:]
                if len(rest) == 1:
                    hit = target.functions.get(rest[0])
                    if hit is not None:
                        return hit
                elif len(rest) == 2:
                    hit = target.functions.get(f"{rest[0]}.{rest[1]}")
                    if hit is not None:
                        return hit
        elif bound[0] == "symbol" and len(chain) == 2:
            # ``from pkg import mod`` then ``mod.f()`` — the symbol may be
            # a submodule rather than a function.
            target = self.find_module(f"{bound[1]}.{bound[2]}")
            if target is not None:
                return target.functions.get(chain[1])
        return None

    def _resolve_base_method(
        self, info: ModuleInfo, base: ast.expr, method: str
    ) -> FunctionInfo | None:
        if isinstance(base, ast.Name):
            name = base.id
            if name in info.classes:
                return info.functions.get(f"{name}.{method}")
            bound = info.imports.get(name)
            if bound is not None and bound[0] == "symbol":
                target = self.find_module(bound[1])
                if target is not None:
                    return target.functions.get(f"{bound[2]}.{method}")
        return None

    def enclosing_function(
        self, module: Module, node: ast.AST
    ) -> FunctionInfo | None:
        """The innermost indexed function whose body contains ``node``."""
        info = next((m for m in self.modules if m.module is module), None)
        if info is None:
            return None
        best: FunctionInfo | None = None
        for fi in info.functions.values():
            if any(sub is node for sub in ast.walk(fi.node)):
                if best is None or fi.node.lineno > best.node.lineno:
                    best = fi
        return best



def attr_chain(node: ast.expr) -> tuple[str, ...]:
    """``a.b.c`` -> ("a", "b", "c"); empty tuple when not a plain chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ()
    parts.append(node.id)
    return tuple(reversed(parts))
