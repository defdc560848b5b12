"""Exception hierarchy for the heat-stroke reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so callers
can catch library failures without catching unrelated built-ins.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigError(ReproError):
    """A configuration value is missing, inconsistent, or out of range."""


class AssemblyError(ReproError):
    """The assembler rejected a source program."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ExecutionError(ReproError):
    """The functional executor hit an illegal state (bad PC, bad register)."""


class PipelineError(ReproError):
    """An internal pipeline invariant was violated (a simulator bug)."""


class ThermalError(ReproError):
    """The thermal model was constructed or driven inconsistently."""


class WorkloadError(ReproError):
    """A workload name is unknown or a workload was misconfigured."""


class SimulationError(ReproError):
    """The top-level simulator was driven incorrectly."""


class FaultError(ReproError):
    """An injected fault fired (worker chaos) or a fault plan misbehaved.

    Raised by :class:`repro.faults.plan.WorkerFaultPlan` chaos hooks when a
    crash or transient failure is injected in-process (a crash hard-kills
    a pool worker instead, and its specs re-run in-process); the batch
    runner treats it like any other worker exception: retry, then a
    :class:`repro.sim.parallel.RunFailure` of kind ``"error"``.
    """
