"""Policy construction from a config: one builder for every engine."""

from __future__ import annotations

from ..config import SimulationConfig
from ..core.sedation import SelectiveSedationController
from ..errors import SimulationError
from .base import DTMPolicy
from .dvfs import DVFS
from .fetch_gating import FetchGating
from .sedation import SedationPolicy
from .stop_and_go import StopAndGo
from .ttdfs import TRACKING_OFFSET_K, TTDFS


def build_policy(
    config: SimulationConfig, core, monitor, thermal, report_log=None
) -> DTMPolicy:
    """The DTM policy ``config`` names.

    ``core`` and ``monitor`` are what the sedation controller actuates and
    reads (an :class:`~repro.pipeline.smt.SMTCore` and a
    :class:`~repro.core.usage.UsageMonitor`, or one batch lane's
    :class:`~repro.sim.cohort.LanePort` standing in for both); other
    policies ignore them.  ``thermal`` is the run's RC model, which sizes
    the sedation re-examination wait unless the config pins it.
    """
    settings = config.thermal
    name = config.dtm_policy
    if name == "ideal":
        return DTMPolicy()
    if name == "stop_and_go":
        return StopAndGo(settings.emergency_k, settings.normal_operating_k)
    if name == "dvfs":
        return DVFS(settings.emergency_k, settings.normal_operating_k)
    if name == "ttdfs":
        return TTDFS(tracking_threshold_k=settings.emergency_k - TRACKING_OFFSET_K)
    if name == "fetch_gating":
        return FetchGating(settings.emergency_k, settings.normal_operating_k)
    if name == "sedation":
        cooling = config.sedation.expected_cooling_cycles
        if cooling is None:
            cooling = settings.cycles_from_seconds(thermal.expected_cooling_seconds())
        controller = SelectiveSedationController(
            core,
            monitor,
            config.sedation,
            expected_cooling_cycles=cooling,
            report_log=report_log,
        )
        return SedationPolicy(
            controller, settings.emergency_k, settings.normal_operating_k
        )
    raise SimulationError(f"unknown DTM policy {name!r}")
