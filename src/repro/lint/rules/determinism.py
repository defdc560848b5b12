"""RPR001 — determinism hazards in cache-fingerprinted simulation code.

The run cache (``repro.sim.parallel``) assumes every simulation is a pure
function of its configuration: the same :class:`RunSpec` must produce the
same bytes forever, across processes and interpreter runs.  Anything that
injects ambient state — the global RNG, wall-clock time, environment
variables, or set iteration order — silently breaks that contract, and a
broken contract means cached figures that no re-run can reproduce.

This rule guards the packages that execute inside a fingerprinted run
(``sim``, ``pipeline``, ``thermal``, ``dtm``, ``core``, ``faults``, and
the µop generation under it: ``workloads``, ``memory``, ``power``,
``branch``, ``isa``).  Code outside those packages (CLI, analysis,
telemetry sinks) may read the environment freely.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..findings import Finding
from ..project import ProjectContext, attr_chain
from ..registry import Rule, register

#: Packages whose modules run inside a fingerprinted simulation.
GUARDED_PACKAGES = (
    "sim", "pipeline", "thermal", "dtm", "core", "faults",
    "workloads", "memory", "power", "branch", "isa",
)

#: ``random.<fn>`` calls that touch the process-global RNG.  Constructing a
#: seeded ``random.Random(...)`` instance is the sanctioned pattern.
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "randbytes", "choice", "choices",
    "shuffle", "sample", "uniform", "triangular", "betavariate",
    "expovariate", "gammavariate", "gauss", "lognormvariate",
    "normalvariate", "paretovariate", "vonmisesvariate", "weibullvariate",
    "getrandbits", "seed",
})

#: Wall-clock reads on the ``time`` module.
_TIME_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns",
})

#: Wall-clock reads on ``datetime``/``date`` objects.
_DATETIME_FNS = frozenset({"now", "utcnow", "today"})


def _is_set_expr(node: ast.expr) -> bool:
    """A literal set, a set comprehension, or a bare ``set(...)`` call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "set"
    )


def iter_hazards(root: ast.AST) -> Iterator[tuple[ast.AST, str, str]]:
    """Yield ``(node, label, message)`` for every ambient-state read.

    Shared by RPR001 (direct hazards inside guarded packages) and RPR007
    (call-graph-transitive hazards): ``label`` is the short form used in
    taint-path messages (``time.time()``, ``os.environ``), ``message`` the
    full RPR001 diagnostic.
    """
    for node in ast.walk(root):
        if isinstance(node, ast.Call):
            yield from _call_hazards(node)
        elif isinstance(node, ast.Attribute):
            chain = attr_chain(node)
            if chain[:2] == ("os", "environ"):
                yield (
                    node, "os.environ",
                    "os.environ read inside a fingerprinted simulation "
                    "path; environment state is not part of the cache "
                    "key — thread it through the config instead",
                )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter):
                yield (
                    node.iter, "set iteration",
                    "iteration over a set has arbitrary order; iterate "
                    "sorted(...) so results are reproducible",
                )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for comp in node.generators:
                if _is_set_expr(comp.iter):
                    yield (
                        comp.iter, "set iteration",
                        "comprehension over a set has arbitrary order; "
                        "iterate sorted(...) so results are reproducible",
                    )


def _call_hazards(node: ast.Call) -> Iterator[tuple[ast.AST, str, str]]:
    chain = attr_chain(node.func)
    if not chain:
        return
    if chain[0] == "random" and len(chain) == 2:
        if chain[1] in _GLOBAL_RANDOM_FNS:
            yield (
                node, f"random.{chain[1]}()",
                f"random.{chain[1]}() uses the unseeded process-global "
                "RNG; construct a random.Random(seed) from the config",
            )
    elif chain[0] in ("numpy", "np") and len(chain) >= 2 and chain[1] == "random":
        seeded_rng = (
            chain[-1] == "default_rng" and (node.args or node.keywords)
        )
        if not seeded_rng:
            yield (
                node, f"{'.'.join(chain)}()",
                f"{'.'.join(chain)}() draws from numpy's global (or "
                "unseeded) RNG; pass an explicit seed from the config",
            )
    elif chain[0] == "time" and len(chain) == 2 and chain[1] in _TIME_FNS:
        yield (
            node, f"time.{chain[1]}()",
            f"time.{chain[1]}() reads the wall clock; simulation state "
            "must depend only on simulated cycles",
        )
    elif chain[-1] in _DATETIME_FNS and len(chain) >= 2 and (
        chain[-2] in ("datetime", "date")
    ):
        yield (
            node, f"{'.'.join(chain)}()",
            f"{'.'.join(chain)}() reads the wall clock; simulation "
            "state must depend only on simulated cycles",
        )
    elif chain[:2] == ("os", "getenv"):
        yield (
            node, "os.getenv()",
            "os.getenv() inside a fingerprinted simulation path; "
            "environment state is not part of the cache key — thread "
            "it through the config instead",
        )


@register
class DeterminismRule(Rule):
    code = "RPR001"
    name = "determinism-hazard"
    summary = (
        "ambient state (global RNG, wall clock, os.environ, set iteration "
        "order) inside cache-fingerprinted simulation packages"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for info in project.modules:
            if info.module.in_package(*GUARDED_PACKAGES):
                for node, _label, message in iter_hazards(info.module.tree):
                    yield self.finding(info.module, node, message)
