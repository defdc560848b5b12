"""Heterogeneous-lane SoA support: stream banks, RNG banks, sensor gather.

PRs 5–6 batched lanes that shared *everything* the pipeline consumes —
workloads, machine, and seed — which excluded exactly the sweeps the paper
runs (every figure varies workload pairs or seeds).  This module carries
the per-trajectory state that lets :func:`repro.sim.batch.simulate_lockstep`
accept **heterogeneous** lanes:

* :class:`StreamBank` — one generated uop stream per distinct
  ``(workload, thread, seed)`` triple, shared across every trajectory
  group and cohort that replays it (see :mod:`repro.pipeline.banks`).  A
  workload appearing in many mixes — ``gcc`` in ``(gcc, swim)`` and
  ``(gcc, mcf)`` lanes — is generated once per seed, not once per mix.
* :func:`build_streamed_pipeline` — :func:`repro.sim.simulator.build_pipeline`
  with stream cursors in place of live sources, so forking a pipeline at a
  cohort split costs O(in-flight uops), not a deep copy of generators.
* :class:`LaneRngBank` — the per-lane sensor-noise ``random.Random``
  streams.  The **RNG-bank contract**: each lane owns one scalar
  ``Random(sensor_noise_seed)`` and draws through the scalar bank's own
  :func:`repro.thermal.sensors.add_sensor_noise` at every sensor boundary
  — byte-identical to :meth:`repro.thermal.sensors.SensorBank.sample` —
  and the lane's stream object travels with the lane across cohort
  splits, so its draw sequence never depends on which cohort the lane
  currently rides in.
* :func:`sample_sensors` — the gather of every lane's reported reading
  from its thermal network group's packed state, vectorized over lanes.

Lanes whose workloads halt at different times need no special masking:
the halt is part of the trajectory (a halted thread stops fetching inside
its trajectory group's shared pipeline), and lanes never share a pipeline
across trajectories in the first place.
"""

from __future__ import annotations

import random

import numpy as np

from ..blocks import NUM_BLOCKS
from ..errors import SimulationError
from ..pipeline.banks import SharedStream, StreamCursor
from ..pipeline.smt import SMTCore
from ..thermal.sensors import add_sensor_noise
from ..workloads.registry import make_source


class StreamBank:
    """Shared uop streams for one lock-step batch call.

    Keyed by ``(workload, thread id, seed)`` — the full set of inputs that
    (for a fixed machine and thermal time base, both batch-fingerprinted)
    determine a source's output.  Sources are built through the real
    scalar :func:`~repro.workloads.registry.make_source`, so generation
    replays the exact crc32-salted RNG streams and executor steps of a
    scalar run.
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


def build_streamed_pipeline(config, workloads, bank: StreamBank) -> SMTCore:
    """A scalar-equivalent pipeline fed by shared stream cursors.

    Mirrors :func:`repro.sim.simulator.build_pipeline` — same source
    construction inputs, same prefill of the core's caches — but the core
    reads replayed columns, so sibling trajectory groups and split-off
    cohorts share one generation pass per distinct stream.
    """
    machine = config.machine
    if len(workloads) != machine.num_threads:
        raise SimulationError(
            f"need {machine.num_threads} workloads, got {len(workloads)}"
        )
    sources = [
        bank.cursor(name, tid, config.seed)
        for tid, name in enumerate(workloads)
    ]
    core = SMTCore(machine, sources)
    for source in sources:
        source.prefill(core.hierarchy)
    return core


def release_cursors(core: SMTCore) -> None:
    """Unregister a finished pipeline's cursors so streams can trim."""
    for thread in core.threads:
        release = getattr(thread.source, "release", None)
        if release is not None:
            release()


class LaneRngBank:
    """Per-lane sensor-noise streams, drawn in the exact scalar order.

    Vector counterpart of the ``random.Random(sensor_noise_seed)`` each
    scalar :class:`~repro.thermal.sensors.SensorBank` owns.  NumPy's
    Gaussian generator is *not* bit-compatible with CPython's
    ``Random.gauss``, so the draws themselves stay scalar — the bank's job
    is carrying the streams per lane, skipping all work when no lane is
    noisy (the common case), and gathering on splits.
    """

    def __init__(self, thermals) -> None:
        self.sigmas = np.array([t.sensor_noise_k for t in thermals])
        self.rngs = [
            random.Random(t.sensor_noise_seed)
            if t.sensor_noise_k > 0.0
            else None
            for t in thermals
        ]
        self.noisy = bool((self.sigmas > 0.0).any())

    def fill(self, temps: np.ndarray) -> None:
        """Add each noisy lane's per-block Gaussian error to its row."""
        if not self.noisy:
            return
        for lane, rng in enumerate(self.rngs):
            sigma = self.sigmas[lane]
            if sigma > 0.0:
                add_sensor_noise(temps[lane], rng, sigma)

    def take(self, indices: np.ndarray) -> "LaneRngBank":
        """New bank carrying the selected lanes' streams and sigmas.

        The ``Random`` objects move by reference: a lane lives in exactly
        one cohort, so its stream keeps advancing one draw sequence no
        matter how many times its cohort splits.
        """
        clone = object.__new__(LaneRngBank)
        clone.sigmas = self.sigmas[indices]
        clone.rngs = [self.rngs[int(index)] for index in indices]
        clone.noisy = bool((clone.sigmas > 0.0).any())
        return clone


def sample_sensors(cohort, temps: np.ndarray) -> None:
    """Fill ``temps`` with every lane's reported reading; record crossings.

    Gathers each lane's temperatures from its network group's packed state
    (one stacked ``take`` when a cohort spans several thermal configs, a
    single broadcast copy otherwise), applies the per-lane noise bank, and
    folds the readings into the crossing detector — the vector form of
    ``SensorBank.sample`` minus fault injection (unbatchable).
    """
    group_list = cohort.group_list
    if len(group_list) == 1:
        group = group_list[0]
        if group.ideal:
            temps[:] = group.model.t_block
        else:
            temps[:] = group.state[:NUM_BLOCKS]
    else:
        stacked = np.stack(
            [
                group.model.t_block if group.ideal
                else group.state[:NUM_BLOCKS]
                for group in group_list
            ]
        )
        np.take(stacked, cohort.group_rows, axis=0, out=temps)
    cohort.rng.fill(temps)
    cohort.detector.observe(temps)
