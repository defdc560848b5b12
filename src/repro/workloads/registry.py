"""Workload registry: names → row sources.

A workload name is either a SPEC2K benchmark (synthetic profile) or one of
the malicious kernels (``variant1``/``variant2``/``variant3``).  The factory
builds a fresh, independent source for a given hardware context.
"""

from __future__ import annotations

from ..config import MachineConfig, ThermalConfig
from ..errors import WorkloadError
from ..pipeline.source import RowSource
from .malicious import MALICIOUS_VARIANTS, build_variant
from .profiles import SPEC_PROFILES, get_profile
from .program_source import ProgramSource
from .synthetic import SyntheticSource


def workload_names() -> list[str]:
    """Every registered workload name."""
    return sorted(SPEC_PROFILES) + list(MALICIOUS_VARIANTS)


def is_malicious(name: str) -> bool:
    return name in MALICIOUS_VARIANTS


def make_source(
    name: str,
    thread_id: int,
    machine: MachineConfig,
    thermal: ThermalConfig,
    seed: int = 42,
) -> RowSource:
    """Instantiate the workload ``name`` on hardware context ``thread_id``.

    ``"idle"`` resolves to an immediately-halting context (how a solo
    benchmark occupies the second SMT slot).  It is addressable by name so
    solo runs can be described — and therefore cached and dispatched to
    worker processes — as plain workload-name lists, but it is not listed in
    :func:`workload_names` because it is not a benchmark.
    """
    if name == "idle":
        from ..isa.assembler import assemble

        return ProgramSource(assemble("halt", name="idle"), thread_id)
    if name in MALICIOUS_VARIANTS:
        return ProgramSource(build_variant(name, machine, thermal), thread_id)
    if name in SPEC_PROFILES:
        return SyntheticSource(get_profile(name), thread_id, seed=seed)
    raise WorkloadError(
        f"unknown workload {name!r}; known: {workload_names()}"
    )
