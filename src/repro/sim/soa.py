"""Heterogeneous-lane support: shared uop streams.

PRs 5–6 batched lanes that shared *everything* the pipeline consumes —
workloads, machine, and seed — which excluded exactly the sweeps the paper
runs (every figure varies workload pairs or seeds).  This module carries
the per-trajectory state that lets :func:`repro.sim.batch.simulate_lockstep`
accept **heterogeneous** lanes: :class:`StreamBank`, one generated uop
stream per distinct ``(workload, thread, seed)`` triple, shared across
every trajectory group and cohort that replays it (see
:mod:`repro.pipeline.banks`).  A workload appearing in many mixes — ``gcc``
in ``(gcc, swim)`` and ``(gcc, mcf)`` lanes — is generated once per seed,
not once per mix.  Every pipeline, scalar or batch, reads stream cursors
and forks at a cohort split in O(in-flight uops).

Per-lane observers need no structure-of-arrays form: each cohort reads one
scalar :class:`~repro.thermal.sensors.SensorBank` per distinct thermal
config (:mod:`repro.sim.cohort`).  Lanes whose workloads halt at different
times need no special masking either: the halt is part of the trajectory
(a halted thread stops fetching inside its trajectory group's shared
pipeline), and lanes never share a pipeline across trajectories in the
first place.
"""

from __future__ import annotations

from ..pipeline.banks import SharedStream, StreamCursor
from ..pipeline.smt import SMTCore
from ..workloads.registry import make_source


class StreamBank:
    """Shared uop streams for one lock-step batch call.

    Keyed by ``(workload, thread id, seed)`` — the full set of inputs that
    (for a fixed machine and thermal time base, both batch-fingerprinted)
    determine a source's output.  Sources are built through
    :func:`~repro.workloads.registry.make_source`, as a scalar run builds
    them, so generation replays the exact crc32-salted RNG streams and
    executor steps of a scalar run.
    """

    def __init__(self, machine, thermal) -> None:
        self.machine = machine
        self.thermal = thermal
        self._streams: dict[tuple[str, int, int], SharedStream] = {}

    def cursor(self, name: str, tid: int, seed: int) -> StreamCursor:
        """A fresh cursor at position 0 of the ``(name, tid, seed)`` stream."""
        key = (name, tid, seed)
        stream = self._streams.get(key)
        if stream is None:
            stream = SharedStream(
                make_source(name, tid, self.machine, self.thermal, seed=seed)
            )
            self._streams[key] = stream
        return StreamCursor(stream, tid)

    def trim(self) -> None:
        """Compact every stream behind its slowest live cursor."""
        for stream in self._streams.values():
            stream.trim()

    @property
    def stream_count(self) -> int:
        return len(self._streams)

    @property
    def rows_generated(self) -> int:
        return sum(stream.generated for stream in self._streams.values())


def release_cursors(core: SMTCore) -> None:
    """Unregister a finished pipeline's cursors so streams can trim."""
    for thread in core.threads:
        thread.source.release()
