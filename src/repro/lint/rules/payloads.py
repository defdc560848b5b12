"""RPR008 — event payload schema consistency across emit sites.

``repro.telemetry.columnar`` packs an event type into typed NPZ columns
only when every event of that type carries the same ``data`` keys with
stable scalar kinds (:func:`_sniff_data_schema`); one divergent emit site
silently demotes the whole type to a JSON-blob column.  That eligibility
is decided at save time — this rule decides it at lint time, before the
drift ships.

For every ``*.emit(EventType.X, ...)`` call site the payload is resolved
statically:

* no ``data`` argument — the empty key set;
* a dict literal — keys and coarse value kinds read directly;
* a local variable — the intraprocedural dict-shape lattice replays the
  function body up to the call (literal seed, ``d[k] = v``, ``d.update``
  with a literal), so conditionally-added keys are visible;
* anything else (``**`` unpack, opaque ``update``, non-literal rebind) is
  *dynamic*: statically unverifiable, reported so the site either gets a
  fixed schema or a reasoned ``# repro: noqa(RPR008)``.

Sites then vote per event type: the largest key-set group (ties broken by
the smaller key set) is canonical and every other site is reported, as is
any key whose value kind differs between sites.
"""

from __future__ import annotations

import ast
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field

from ..findings import Finding
from ..registry import Module, Rule, register
from ..project import (
    DictShape,
    ProjectContext,
    dict_literal_shape,
    dict_shape_at,
)


@dataclass
class EmitSite:
    event: str  # EventType member name
    module: Module
    call: ast.Call
    keys: frozenset[str] = frozenset()
    optional: frozenset[str] = frozenset()
    kinds: dict[str, frozenset[str]] = field(default_factory=dict)
    dynamic: bool = False


def _event_name(call: ast.Call) -> str | None:
    """``EventType.X`` (or ``<mod>.EventType.X``) as first emit argument."""
    if not call.args:
        return None
    node = call.args[0]
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    if len(parts) >= 2 and parts[-2] == "EventType":
        return parts[-1]
    return None


def _data_argument(call: ast.Call) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == "data":
            return kw.value
    if len(call.args) >= 6:  # emit(type, cycle, thread, block, value, data)
        return call.args[5]
    return None


def _site_from_shape(site: EmitSite, shape: DictShape) -> EmitSite:
    site.keys = frozenset(shape.required)
    site.optional = frozenset(shape.optional)
    site.kinds = {k: frozenset(v) for k, v in shape.kinds.items()}
    site.dynamic = shape.dynamic
    return site


def _collect_sites(project: ProjectContext) -> list[EmitSite]:
    sites: list[EmitSite] = []
    for info in project.modules:
        for node in ast.walk(info.module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
                continue
            event = _event_name(node)
            if event is None:
                continue
            site = EmitSite(event=event, module=info.module, call=node)
            data = _data_argument(node)
            if data is None:
                sites.append(site)
                continue
            if isinstance(data, ast.Constant) and data.value is None:
                sites.append(site)
                continue
            if isinstance(data, ast.Dict):
                sites.append(_site_from_shape(site, dict_literal_shape(data)))
                continue
            shape = None
            if isinstance(data, ast.Name):
                owner = project.enclosing_function(info.module, node)
                if owner is not None:
                    shape = dict_shape_at(owner.node, data.id, node)
            if shape is None:
                site.dynamic = True
                sites.append(site)
            else:
                sites.append(_site_from_shape(site, shape))
    return sites


def _render_keys(keys: frozenset[str]) -> str:
    return "{" + ", ".join(sorted(keys)) + "}" if keys else "{}"


@register
class PayloadSchemaRule(Rule):
    code = "RPR008"
    name = "payload-schema"
    summary = (
        "emit sites for one EventType must share one payload key set with "
        "stable value kinds (guards columnar packed-column eligibility)"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        by_event: dict[str, list[EmitSite]] = {}
        for site in _collect_sites(project):
            by_event.setdefault(site.event, []).append(site)

        for event in sorted(by_event):
            sites = sorted(
                by_event[event],
                key=lambda s: (s.module.path, s.call.lineno, s.call.col_offset),
            )
            static = []
            for site in sites:
                if site.dynamic:
                    yield self.finding(
                        site.module, site.call,
                        f"EventType.{event} payload is not statically "
                        "analyzable (dict unpacking, opaque update, or "
                        "non-literal value); columnar packing eligibility "
                        "cannot be checked — use a literal key set or "
                        "suppress with a reason",
                    )
                elif site.optional:
                    yield self.finding(
                        site.module, site.call,
                        f"EventType.{event} payload adds conditional keys "
                        f"{_render_keys(site.optional)}; emit one fixed key "
                        "set so every event of the type packs into the "
                        "same columns",
                    )
                else:
                    static.append(site)

            if len(static) < 2:
                continue

            # Majority vote on the key set; ties prefer the smaller set
            # (an extra key on one site is the likelier drift).
            tally = Counter(site.keys for site in static)
            canonical = min(
                tally, key=lambda keys: (-tally[keys], len(keys), sorted(keys))
            )
            witness = next(s for s in static if s.keys == canonical)
            for site in static:
                if site.keys != canonical:
                    yield self.finding(
                        site.module, site.call,
                        f"EventType.{event} payload keys "
                        f"{_render_keys(site.keys)} differ from "
                        f"{_render_keys(canonical)} used at "
                        f"{witness.module.path}:{witness.call.lineno} "
                        f"({tally[canonical]} of {len(static)} sites)",
                    )

            # Value-kind stability for the canonical keys.
            for key in sorted(canonical):
                seen: dict[str, EmitSite] = {}
                for site in static:
                    if site.keys != canonical:
                        continue
                    for kind in site.kinds.get(key, ()):
                        if kind != "any":
                            seen.setdefault(kind, site)
                if len(seen) > 1:
                    kinds = sorted(seen)
                    site = seen[kinds[-1]]
                    yield self.finding(
                        site.module, site.call,
                        f"EventType.{event} payload key '{key}' mixes value "
                        f"kinds {kinds}; columnar packing needs one stable "
                        "scalar kind per key",
                    )
