"""Property-based thermal-model, sensor and DTM quiet-band tests (hypothesis)."""

import copy
import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocks import NUM_BLOCKS
from repro.config import ThermalConfig, scaled_config
from repro.dtm import build_policy
from repro.thermal import RCThermalModel
from repro.thermal.sensors import SensorBank, SensorReading

powers_strategy = st.lists(
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    min_size=NUM_BLOCKS,
    max_size=NUM_BLOCKS,
)


def fresh_model():
    return RCThermalModel(ThermalConfig())


@given(powers_strategy, st.floats(min_value=1e-5, max_value=5e-3))
@settings(max_examples=30, deadline=None)
def test_temperatures_stay_finite_and_above_ambient(powers, dt):
    model = fresh_model()
    for _ in range(5):
        model.advance(dt, powers)
    temps = model.temperatures()
    assert np.all(np.isfinite(temps))
    assert np.all(temps > model.config.ambient_k)


@given(powers_strategy)
@settings(max_examples=30, deadline=None)
def test_more_power_never_cools(powers):
    """Pointwise monotonicity: adding power to one block cannot lower its
    temperature over the same horizon."""
    low = fresh_model()
    high = fresh_model()
    boosted = list(powers)
    boosted[0] += 2.0
    for _ in range(20):
        low.advance(1e-3, powers)
        high.advance(1e-3, boosted)
    assert high.block_temperature(0) > low.block_temperature(0)


@given(powers_strategy, st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_integration_is_step_size_insensitive(powers, splits):
    """Advancing by dt once vs. in n equal chunks lands within tolerance
    (substepping keeps forward Euler well-behaved)."""
    total_dt = 2e-3
    whole = fresh_model()
    whole.advance(total_dt, powers)
    chunked = fresh_model()
    for _ in range(splits):
        chunked.advance(total_dt / splits, powers)
    assert np.allclose(whole.temperatures(), chunked.temperatures(), atol=0.05)


@given(powers_strategy)
@settings(max_examples=30, deadline=None)
def test_bounded_by_steady_state(powers):
    """No block overshoots its own steady-state temperature under constant
    power (the network is a passive RC: monotone approach, no ringing)."""
    model = fresh_model()
    start = model.temperatures()
    for _ in range(50):
        model.advance(2e-3, powers)
    temps = model.temperatures()
    for block in range(NUM_BLOCKS):
        steady = model.steady_state_block_temperature(
            block, powers[block], model.t_sink
        )
        upper = max(start[block], steady) + 0.6
        assert temps[block] <= upper


@given(st.floats(min_value=0.55, max_value=0.9))
@settings(max_examples=20, deadline=None)
def test_sink_temperature_monotone_in_convection_resistance(r_conv):
    """A worse sink always runs hotter.  (Sinks bad enough to push the
    nominal package past the emergency point are rejected at construction —
    a separate guard tested in test_thermal.py.)"""
    better = RCThermalModel(ThermalConfig(convection_resistance_k_per_w=r_conv))
    worse = RCThermalModel(
        ThermalConfig(convection_resistance_k_per_w=r_conv + 0.05)
    )
    assert worse.nominal_sink_k > better.nominal_sink_k


# -- sensor crossing accounting ----------------------------------------------


EMERGENCY_K = ThermalConfig().emergency_k

reading_strategy = st.lists(
    st.one_of(
        st.just(EMERGENCY_K),
        st.floats(
            min_value=EMERGENCY_K - 8.0,
            max_value=EMERGENCY_K + 3.0,
            allow_nan=False,
        ),
    ),
    min_size=NUM_BLOCKS,
    max_size=NUM_BLOCKS,
)


@given(st.lists(reading_strategy, max_size=15))
@settings(max_examples=60, deadline=None)
def test_sensor_bank_counts_upward_crossings(sequence):
    """SensorBank's emergency accounting against an independent edge count.

    Per block, the count is the number of readings at or above the
    emergency point whose predecessor (the warm start, for the first) was
    below it; a reading below the point never adds one; the peak is the
    running maximum from the warm-start temperatures on.
    """
    model = fresh_model()
    bank = SensorBank(model, EMERGENCY_K)
    warm = model.temperatures()
    assert np.all(warm < EMERGENCY_K)
    peak = float(np.max(warm))
    assert bank.peak_k == peak
    previous = list(warm)
    expected = [0] * NUM_BLOCKS
    for cycle, temps in enumerate(sequence):
        model.t_block[:] = temps
        before = list(bank.emergencies_per_block)
        reading = bank.sample(cycle)
        crossed = [
            block
            for block in range(NUM_BLOCKS)
            if temps[block] >= EMERGENCY_K > previous[block]
        ]
        assert reading.emergency_crossings == crossed
        for block in range(NUM_BLOCKS):
            expected[block] += block in crossed
            if temps[block] < EMERGENCY_K:
                assert bank.emergencies_per_block[block] == before[block]
        previous = temps
        peak = max(peak, *temps)
        assert bank.peak_k == peak
    assert bank.emergencies_per_block == expected
    assert bank.total_emergencies == sum(bank.emergencies_per_block)


# -- DTM quiet bands -----------------------------------------------------------


POLICIES = ("ideal", "stop_and_go", "dvfs", "ttdfs", "fetch_gating", "sedation")

temps_strategy = st.lists(
    st.floats(min_value=352.0, max_value=361.0, allow_nan=False),
    min_size=NUM_BLOCKS,
    max_size=NUM_BLOCKS,
)


class _Core:
    """Just the thread flags and setters the sedation controller uses."""

    def __init__(self) -> None:
        self.threads = [
            SimpleNamespace(tid=tid, sedated=False, throttle_modulus=0, halted=False)
            for tid in range(2)
        ]

    def set_sedated(self, tid, sedated):
        self.threads[tid].sedated = sedated

    def set_throttled(self, tid, modulus):
        self.threads[tid].throttle_modulus = modulus


class _Monitor:
    def weighted_average(self, tid, block):
        return float((tid + 1) * (block % 3 + 1))


def _policy(name, core):
    config = scaled_config().with_policy(name)
    config = dataclasses.replace(
        config,
        sedation=dataclasses.replace(config.sedation, expected_cooling_cycles=500),
    )
    return build_policy(config, core, _Monitor(), thermal=None)


def _state(policy, core):
    """Everything ``on_sensor`` may change: policy, controller, thread flags."""
    state = {
        key: value
        for key, value in vars(policy).items()
        if key not in ("controller", "telemetry")
    }
    controller = getattr(policy, "controller", None)
    if controller is not None:
        state["controller"] = {
            key: value
            for key, value in vars(controller).items()
            if key not in ("core", "monitor", "config", "telemetry", "reports")
        }
        state["reports"] = len(controller.reports)
    state["threads"] = [(t.sedated, t.throttle_modulus) for t in core.threads]
    return copy.deepcopy(state)


def _inside(lo, hi, where):
    """A hottest reading strictly inside ``(lo, hi)``, or None if empty."""
    if lo == -math.inf and hi == math.inf:
        value = 340.0 + 30.0 * where
    elif lo == -math.inf:
        value = hi - 0.001 - 10.0 * where
    elif hi == math.inf:
        value = lo + 0.001 + 10.0 * where
    else:
        value = lo + (hi - lo) * where
    return value if lo < value < hi else None


@pytest.mark.parametrize("name", POLICIES)
@given(
    history=st.lists(
        st.tuples(st.integers(min_value=1, max_value=400), temps_strategy),
        max_size=12,
    ),
    where=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    drops=st.lists(
        st.floats(min_value=0.0, max_value=4.0),
        min_size=NUM_BLOCKS,
        max_size=NUM_BLOCKS,
    ),
    hottest_block=st.integers(min_value=0, max_value=NUM_BLOCKS - 1),
)
@settings(max_examples=60, deadline=None)
def test_reading_inside_quiet_band_changes_nothing(
    name, history, where, drops, hottest_block
):
    core = _Core()
    policy = _policy(name, core)
    cycle = 0
    for step, temps in history:
        cycle += step
        policy.on_sensor(SensorReading(cycle, np.array(temps)))
    hottest = _inside(*policy.quiet_band(), where)
    if hottest is None:
        return  # empty band: every reading is passed to the policy
    temps = hottest - np.array(drops)
    temps[hottest_block] = hottest
    before = _state(policy, core)
    policy.on_sensor(SensorReading(cycle + 1, temps))
    assert _state(policy, core) == before
