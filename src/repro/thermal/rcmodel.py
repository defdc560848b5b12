"""Compact RC thermal network (HotSpot-style).

Each floorplan block is a three-node vertical stack — a die node over a
die-local region over a spreader region — draining into a single heat-sink
node shared by all blocks::

    P_i -> [T_block_i] -R1_i-> [T_local_i] -R2_i-> [T_deep_i] -R3_i-> [T_sink] -R_conv-> ambient
             C_block_i           C_local_i           C_deep_i            C_sink

Lateral die resistances are omitted: the paper notes that lateral heat flow
is "not appreciable" compared with the vertical path.

The three-layer stack is what produces the paper's central asymmetry (fast
~1 ms heat-up under attack power, ~10 ms cool-down through the package), and
it cannot be collapsed to two layers: with two nodes, fast heating and slow
cooling are mutually exclusive for a fixed burst power.  With three time
scales the roles separate —

* the **die node** (sub-ms) rides a few kelvin above the local region and
  performs the final crossing of the emergency temperature;
* the **local region** (several ms) does the swinging between the emergency
  neighborhood and the resume (normal-operating) neighborhood — its decay
  toward the warm deep region is what makes stop-and-go cooling slow;
* the **deep region** (tens of ms) is charged by the attack's long-run
  average power to just below the normal operating point, so the local
  region's cooling asymptote is close to the resume threshold (slow cooling)
  while a resumed burst still re-crosses the emergency quickly.

**Calibration.**  Rather than hand-tuned resistances, the network is solved
from declared anchors (:class:`CalibrationAnchors`): the total vertical
resistance comes from the *slope* between two sustained integer-register-file
operating points, and per-area resistance/capacitance units follow.  Block
time constants are area-independent design constants, while steady-state
temperature rise scales inversely with area — small blocks run hotter, as
physics demands, which is why the small register file is the natural target.

**One eigendecomposition per network per process.**  The exact integrator
needs the network's eigenbasis, and ``eigh`` costs more than its 46×46
solve: OpenBLAS's threads busy-wait for a while after each call.  The basis
is memoized by the exact bytes of the capacitance vector and conductance
matrix (:func:`_eigenbasis`), so every model of one network, in a scalar
run, a batch root or a forked pool worker, shares one read-only copy.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from ..blocks import INT_RF, NUM_BLOCKS
from ..config import ThermalConfig
from ..errors import ThermalError
from ..power.energy import EnergyModel
from .floorplan import Floorplan
from .package import Package

#: Default vertical-resistance shares of the three layers (die, local,
#: deep).  The die share sets how far the fast node rides above the local
#: region during a burst; the deep share sets how warm the attack's average
#: power keeps the cooling asymptote.
LAYER_SHARES = (0.55, 0.25, 0.20)


#: Most eigenbases :func:`_eigenbasis` keeps per process (oldest evicted).
#: A campaign touches a handful of thermal networks; the bound only keeps
#: a long sweep over many package variants from growing without limit.
_EIGENBASIS_LIMIT = 32

#: ``(capacitance bytes, conductance bytes) -> (modes, basis, basis_t_state,
#: basis_t_input)``: everything ``eigh`` reads maps to everything it
#: yields, so a hit is exact.  Per process; a forked pool worker inherits
#: the driver's entries (:func:`repro.sim.parallel.dispatch` fills them
#: before it forks).
_EIGENBASES: dict[tuple[bytes, bytes], tuple[np.ndarray, ...]] = {}


def _eigenbasis(
    capacitance: np.ndarray, conductance: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The network's modes and scaled eigenvectors, solved once per process.

    One ``eigh`` of the sqrt(C)-symmetrized network (see
    :meth:`RCThermalModel._build_propagator_basis`).  The arrays are
    read-only: every model of the same network shares them.
    """
    key = (capacitance.tobytes(), conductance.tobytes())
    basis = _EIGENBASES.get(key)
    if basis is None:
        sqrt_c = np.sqrt(capacitance)
        symmetric = -conductance / np.outer(sqrt_c, sqrt_c)
        eigenvalues, eigenvectors = np.linalg.eigh(symmetric)
        # Row/column scalings that undo the sqrt(C) substitution.
        basis = (
            eigenvalues,
            eigenvectors / sqrt_c[:, None],
            eigenvectors.T * sqrt_c[None, :],
            eigenvectors.T / sqrt_c[None, :],
        )
        for array in basis:
            array.flags.writeable = False
        if len(_EIGENBASES) >= _EIGENBASIS_LIMIT:
            del _EIGENBASES[next(iter(_EIGENBASES))]
        _EIGENBASES[key] = basis
    return basis


@dataclass(frozen=True)
class CalibrationAnchors:
    """Operating points the network is solved against.

    The die resistances are solved from the *slope* between two sustained
    integer-RF operating points: ``rf_emergency_rate`` accesses/cycle at the
    emergency temperature and ``rf_normal_rate`` at the normal operating
    temperature.  The paper's Figure 3 shows SPEC programs staying below ~6
    accesses/cycle while the aggressive variant bursts at ~10; anchoring the
    emergency at a sustained 6 reproduces exactly the regime where normal
    programs flirt with (but rarely cross) the limit and the attack sails
    past it.  Using the slope (not the absolute point) keeps the die network
    independent of the heat sink, so §5.5's convection-resistance sweep
    changes package behavior without silently re-tuning the die.

    ``nominal_dynamic_w`` — chip dynamic power assumed when computing the
    initial (quasi-static) sink temperature.
    """

    rf_emergency_rate: float = 7.1
    rf_normal_rate: float = 3.0
    nominal_dynamic_w: float = 5.0
    layer_shares: tuple[float, float, float] = LAYER_SHARES

    def __post_init__(self) -> None:
        if abs(sum(self.layer_shares) - 1.0) > 1e-9:
            raise ThermalError("layer shares must sum to 1")
        if any(share <= 0 for share in self.layer_shares):
            raise ThermalError("layer shares must be positive")


class RCThermalModel:
    """The calibrated RC network plus its integrator."""

    def __init__(
        self,
        config: ThermalConfig,
        floorplan: Floorplan | None = None,
        energy: EnergyModel | None = None,
        anchors: CalibrationAnchors | None = None,
    ) -> None:
        self.config = config
        self.floorplan = floorplan or Floorplan()
        self.energy = energy or EnergyModel.default()
        self.anchors = anchors or CalibrationAnchors()
        self.package = Package.from_config(config)

        areas = np.asarray(self.floorplan.areas, dtype=float)
        leakage = np.asarray(self.energy.leakage_w, dtype=float)

        nominal_power = (
            self.energy.other_power_w
            + float(leakage.sum())
            + self.anchors.nominal_dynamic_w
        )
        self.nominal_sink_k = (
            config.ambient_k
            + self.package.convection_resistance_k_per_w * nominal_power
        )

        # Solve the RF's total vertical resistance from the temperature/rate
        # slope between the two anchor operating points.
        rate_span = self.anchors.rf_emergency_rate - self.anchors.rf_normal_rate
        watts_per_rate = self.energy.energy_j[INT_RF] * config.frequency_hz
        if rate_span <= 0 or watts_per_rate <= 0:
            raise ThermalError("calibration anchors must have a positive slope")
        rf_total_resistance = (
            config.emergency_k - config.normal_operating_k
        ) / (rate_span * watts_per_rate)
        if self.nominal_sink_k >= config.emergency_k:
            raise ThermalError(
                "nominal sink temperature is above the emergency point; "
                "lower the other/leakage power or the convection resistance"
            )

        rf_area = areas[INT_RF]
        share_block, share_local, share_deep = self.anchors.layer_shares
        self.r1 = share_block * rf_total_resistance * rf_area / areas
        self.r2 = share_local * rf_total_resistance * rf_area / areas
        self.r3 = share_deep * rf_total_resistance * rf_area / areas
        # Area-independent time constants (see module docstring).
        self.c_block = config.block_time_constant_s / self.r1
        self.c_local = config.local_time_constant_s / self.r2
        self.c_deep = config.spreader_time_constant_s / self.r3
        self.rf_total_resistance = rf_total_resistance

        self._build_propagator_basis()
        #: the packed node temperatures — blocks, die-local regions,
        #: spreader regions, then the sink — in the propagators' layout; the
        #: model's only storage (``t_block``/``t_local``/``t_deep`` are views)
        self._state = np.empty(self._state_dim)
        self._bind_views()
        #: per-``dt`` cache of (state propagator, input propagator) pairs;
        #: sensor intervals repeat, so in practice this holds a handful of
        #: entries and every advance after the first is two matvecs.
        self._propagators: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self.perf_advances = 0
        self.perf_propagator_builds = 0
        self.reset()

    # -- state ----------------------------------------------------------------

    def reset(self) -> None:
        """Initialize at the typical-load steady state over the nominal sink.

        The paper measures quanta on a machine that has been running for a
        long time, so the network warm-starts at the steady state of a
        typical mixed workload (normal operating temperatures), not at a
        cold leakage-only state.
        """
        if self.package.ideal:
            self._state[:] = self.config.normal_operating_k
            return
        warm = np.asarray(
            self.energy.typical_powers(self.config.frequency_hz), dtype=float
        )
        self._state[self._sink_index] = self.nominal_sink_k
        self.t_deep[:] = self.nominal_sink_k + warm * self.r3
        self.t_local[:] = self.t_deep + warm * self.r2
        self.t_block[:] = self.t_local + warm * self.r1

    def temperatures(self) -> np.ndarray:
        """Current die-block temperatures (K), indexed by block id."""
        return self.t_block.copy()

    @property
    def t_sink(self) -> float:
        """Heat-sink node temperature (K)."""
        return float(self._state[self._sink_index])

    def _bind_views(self) -> None:
        """Point the per-layer node arrays at their slices of the state."""
        n = NUM_BLOCKS
        self.t_block = self._state[0:n]
        self.t_local = self._state[n : 2 * n]
        self.t_deep = self._state[2 * n : 3 * n]

    def source_vector(self, block_powers: list[float]) -> np.ndarray:
        """Heat-input vector for one interval: block powers + sink drive."""
        if len(block_powers) != NUM_BLOCKS:
            raise ThermalError("need one power entry per block")
        source = np.zeros(self._state_dim)
        source[0:NUM_BLOCKS] = block_powers
        source[self._sink_index] = (
            self.energy.other_power_w
            + self.config.ambient_k / self.package.convection_resistance_k_per_w
        )
        return source

    def fork(self) -> "RCThermalModel":
        """A trajectory-independent copy sharing the solved network.

        The batch engine forks each sensor bank's model when a cohort
        splits: children continue from the same history but must accumulate
        their own propagator cache entries and perf counters from that point
        on (exactly the cache a scalar run would hold at the split cycle).
        The eigenbasis and resistances are immutable after construction and
        stay shared; the state vector is copied and the node views rebound
        to the copy; the ``dt`` cache is a fresh dict over the same
        immutable ``(E, F)`` pairs, so the 64-entry clear threshold keeps
        counting per trajectory.
        """
        clone = copy.copy(self)
        clone._state = self._state.copy()
        clone._bind_views()
        clone._propagators = dict(self._propagators)
        return clone

    def block_temperature(self, block: int) -> float:
        return float(self.t_block[block])

    def hottest(self) -> tuple[int, float]:
        """(block id, temperature) of the hottest die block."""
        index = int(np.argmax(self.t_block))
        return index, float(self.t_block[index])

    # -- integration ------------------------------------------------------------

    def _build_propagator_basis(self) -> None:
        """Eigendecompose the network once; propagators per ``dt`` follow.

        The full network (3 nodes per block plus the shared sink) is a linear
        ODE ``C dT/dt = -K T + s`` with a symmetric positive-definite
        conductance matrix ``K`` (pairwise couplings through r1/r2/r3,
        grounded through the convection resistance).  Substituting
        ``y = sqrt(C) T`` symmetrizes the state matrix, so one ``eigh`` gives
        real negative modes, and the exact interval propagators

            E(dt) = exp(A dt),   F(dt) = A^{-1} (E(dt) - I) C^{-1}

        are diagonal in that basis — any span advances in O(1) regardless of
        how many Euler substeps it would have needed.  The basis itself comes
        from the process-wide memo (:func:`_eigenbasis`), so every model of
        the same network shares one read-only copy; the ``dt`` propagators
        stay per model.
        """
        n = NUM_BLOCKS
        dim = 3 * n + 1
        sink = 3 * n
        capacitance = np.empty(dim)
        capacitance[0:n] = self.c_block
        capacitance[n : 2 * n] = self.c_local
        capacitance[2 * n : 3 * n] = self.c_deep
        capacitance[sink] = self.package.sink_capacitance_j_per_k

        conductance = np.zeros((dim, dim))
        for layer, resistances in enumerate((self.r1, self.r2, self.r3)):
            for block in range(n):
                a = layer * n + block
                b = a + n if layer < 2 else sink
                g = 1.0 / resistances[block]
                conductance[a, a] += g
                conductance[b, b] += g
                conductance[a, b] -= g
                conductance[b, a] -= g
        conductance[sink, sink] += 1.0 / self.package.convection_resistance_k_per_w

        self._modes, self._basis, self._basis_t_state, self._basis_t_input = (
            _eigenbasis(capacitance, conductance)
        )
        self._state_dim = dim
        self._sink_index = sink

    def _propagator(self, dt_seconds: float) -> tuple[np.ndarray, np.ndarray]:
        pair = self._propagators.get(dt_seconds)
        if pair is None:
            modes = self._modes
            decay = np.exp(modes * dt_seconds)
            state_prop = self._basis @ (decay[:, None] * self._basis_t_state)
            gain = np.expm1(modes * dt_seconds) / modes
            input_prop = self._basis @ (gain[:, None] * self._basis_t_input)
            if len(self._propagators) >= 64:
                self._propagators.clear()
            pair = (state_prop, input_prop)
            self._propagators[dt_seconds] = pair
            self.perf_propagator_builds += 1
        return pair

    def advance(self, dt_seconds: float, block_powers: list[float]) -> None:
        """Integrate the network forward by ``dt_seconds`` of thermal time.

        ``block_powers`` are average watts per block over the interval (the
        accountant's output, piecewise-constant over the span).  Uses the
        exact exponential propagator — closed form for any ``dt``, cached per
        distinct ``dt`` (see :meth:`_build_propagator_basis`).
        """
        if dt_seconds < 0:
            raise ThermalError("cannot integrate backwards in time")
        if dt_seconds == 0:
            return
        if self.package.ideal:
            return
        state = self._state
        source = self.source_vector(block_powers)
        state_prop, input_prop = self._propagator(dt_seconds)
        np.add(state_prop @ state, input_prop @ source, out=state)
        self.perf_advances += 1

    def advance_euler(self, dt_seconds: float, block_powers: list[float]) -> None:
        """Forward-Euler reference integrator (substeps at τ_block/4).

        Kept as the ground truth the exact propagator is pinned against
        (tests/test_fastpath.py); the fast path must match it to <0.05 K.
        """
        if dt_seconds < 0:
            raise ThermalError("cannot integrate backwards in time")
        if dt_seconds == 0:
            return
        if self.package.ideal:
            return
        if len(block_powers) != NUM_BLOCKS:
            raise ThermalError("need one power entry per block")

        powers = np.asarray(block_powers, dtype=float)
        substeps = max(
            1, int(np.ceil(dt_seconds / (self.config.block_time_constant_s / 4.0)))
        )
        dt = dt_seconds / substeps
        r1, r2, r3 = self.r1, self.r2, self.r3
        c_block, c_local, c_deep = self.c_block, self.c_local, self.c_deep
        c_sink = self.package.sink_capacitance_j_per_k
        r_conv = self.package.convection_resistance_k_per_w
        ambient = self.config.ambient_k
        other = self.energy.other_power_w

        t_block = self.t_block
        t_local = self.t_local
        t_deep = self.t_deep
        t_sink = self.t_sink
        for _ in range(substeps):
            flow_1 = (t_block - t_local) / r1
            flow_2 = (t_local - t_deep) / r2
            flow_3 = (t_deep - t_sink) / r3
            t_block = t_block + dt * (powers - flow_1) / c_block
            t_local = t_local + dt * (flow_1 - flow_2) / c_local
            t_deep = t_deep + dt * (flow_2 - flow_3) / c_deep
            t_sink = t_sink + dt * (
                float(flow_3.sum()) + other - (t_sink - ambient) / r_conv
            ) / c_sink
        self.t_block[:] = t_block
        self.t_local[:] = t_local
        self.t_deep[:] = t_deep
        self._state[self._sink_index] = t_sink

    # -- analysis helpers ---------------------------------------------------------

    def steady_state_block_temperature(
        self, block: int, power_w: float, sink_k: float | None = None
    ) -> float:
        """Analytic steady-state die temperature of one block."""
        base = self.t_sink if sink_k is None else sink_k
        return base + power_w * (self.r1[block] + self.r2[block] + self.r3[block])

    def expected_cooling_seconds(self) -> float:
        """Estimate of the time for a hot spot to cool to the lower threshold.

        Cooling is limited by the die-local region's decay toward the warm
        deep region; ~1.5 local time constants cover the paper's "expected
        cooling time", and the sedation controller doubles this before
        re-examining a still-hot resource (paper §3.2.2).
        """
        return 1.5 * self.config.local_time_constant_s
