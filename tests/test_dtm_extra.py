"""TTDFS and fetch-gating policy tests (the paper's §4 also-rans)."""

import numpy as np
import pytest

from repro.blocks import INT_RF, NUM_BLOCKS
from repro.config import scaled_config
from repro.dtm import FetchGating, TTDFS
from repro.sim import run_workloads
from repro.thermal.sensors import SensorReading


def reading(cycle, rf_temp, base=350.0):
    temps = np.full(NUM_BLOCKS, base)
    temps[INT_RF] = rf_temp
    return SensorReading(cycle, temps)


class TestTTDFS:
    def test_tracks_temperature_with_frequency_steps(self):
        policy = TTDFS(tracking_threshold_k=357.0)
        policy.on_sensor(reading(0, 356.0))
        assert policy.slowdown == 1
        policy.on_sensor(reading(1, 357.5))
        assert policy.slowdown == 2
        policy.on_sensor(reading(2, 358.6))
        assert policy.slowdown == 3
        policy.on_sensor(reading(3, 356.0))
        assert policy.slowdown == 1

    def test_never_stalls_even_past_emergency(self):
        """The paper's criticism: TTDFS 'does not reduce maximum temperature
        or prevent physical overheating'."""
        policy = TTDFS(tracking_threshold_k=357.0, max_slowdown=4)
        policy.on_sensor(reading(0, 365.0))
        assert policy.global_stall is False
        assert policy.slowdown == 4

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TTDFS(357.0, degrees_per_step=0)
        with pytest.raises(ValueError):
            TTDFS(357.0, max_slowdown=1)

    def test_end_to_end_keeps_running_hot(self):
        config = scaled_config(time_scale=8000.0, quantum_cycles=12_000)
        result = run_workloads(config.with_policy("ttdfs"), ["gzip", "variant2"])
        # No global stalls ever; the machine runs (slowly) at high temps.
        assert result.threads[0].committed > 0
        assert result.peak_temperature_k > 356.0


class TestFetchGating:
    def test_gates_at_emergency_and_restores(self):
        policy = FetchGating(emergency_k=358.0, resume_k=354.0)
        policy.on_sensor(reading(0, 358.2))
        assert policy.slowdown == 2
        assert policy.global_stall is False
        policy.on_sensor(reading(1, 355.0))
        assert policy.slowdown == 2  # hysteresis
        policy.on_sensor(reading(2, 353.9))
        assert policy.slowdown == 1

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError):
            FetchGating(354.0, 358.0)

    def test_end_to_end_is_global_so_victim_still_pays(self):
        config = scaled_config(time_scale=8000.0, quantum_cycles=12_000)
        gated = run_workloads(
            config.with_policy("fetch_gating"), ["gzip", "variant2"]
        )
        sedated = run_workloads(
            config.with_policy("sedation"), ["gzip", "variant2"]
        )
        assert sedated.threads[0].ipc >= gated.threads[0].ipc
