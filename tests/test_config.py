"""Configuration tests: Table-1 values, validation, presets."""

import dataclasses

import pytest

from repro.config import (
    CacheConfig,
    DEFAULT_TIME_SCALE,
    MachineConfig,
    SedationConfig,
    SimulationConfig,
    ThermalConfig,
    paper_config,
    scaled_config,
)
from repro.errors import ConfigError


class TestTable1Defaults:
    """The defaults must encode the paper's Table 1."""

    def test_issue_width_is_six_out_of_order(self):
        assert MachineConfig().issue_width == 6

    def test_l1_caches_are_64kb_4way_2cycle(self):
        machine = MachineConfig()
        for cache in (machine.l1i, machine.l1d):
            assert cache.size_bytes == 64 * 1024
            assert cache.assoc == 4
            assert cache.latency == 2

    def test_l2_is_2mb_8way_12cycle(self):
        l2 = MachineConfig().l2
        assert l2.size_bytes == 2 * 1024 * 1024
        assert l2.assoc == 8
        assert l2.latency == 12

    def test_ruu_and_lsq_sizes(self):
        machine = MachineConfig()
        assert machine.ruu_size == 128
        assert machine.lsq_size == 32

    def test_memory_ports_and_latency(self):
        machine = MachineConfig()
        assert machine.mem_ports == 2
        assert machine.memory_latency == 300

    def test_two_smt_contexts_fetching_two_threads_per_cycle(self):
        machine = MachineConfig()
        assert machine.num_threads == 2
        assert machine.fetch_threads_per_cycle == 2
        assert machine.fetch_policy == "icount"
        assert machine.squash_on_l2_miss is True

    def test_power_density_parameters(self):
        thermal = ThermalConfig()
        assert thermal.vdd == pytest.approx(1.1)
        assert thermal.frequency_hz == pytest.approx(4.0e9)
        assert thermal.convection_resistance_k_per_w == pytest.approx(0.8)
        assert thermal.heatsink_thickness_mm == pytest.approx(6.9)

    def test_temperature_ladder(self):
        """Paper ladder: 358 emergency / 354 normal operating; the sedation
        thresholds sit between them (see config.py for why they are shifted
        from the paper's exact 356/355)."""
        thermal = ThermalConfig()
        sedation = SedationConfig()
        assert thermal.emergency_k == pytest.approx(358.0)
        assert thermal.normal_operating_k == pytest.approx(354.0)
        assert (
            thermal.normal_operating_k
            < sedation.lower_threshold_k
            < sedation.upper_threshold_k
            < thermal.emergency_k
        )


class TestCacheConfig:
    def test_num_sets(self):
        cache = CacheConfig(64 * 1024, 4, 64, 2)
        assert cache.num_sets == 256

    def test_rejects_non_divisible_geometry(self):
        with pytest.raises(ConfigError):
            CacheConfig(1000, 3, 64, 1)

    def test_rejects_zero_latency(self):
        with pytest.raises(ConfigError):
            CacheConfig(1024, 2, 64, 0)

    def test_rejects_negative_size(self):
        with pytest.raises(ConfigError):
            CacheConfig(-1024, 2, 64, 1)


class TestMachineValidation:
    def test_rejects_unknown_fetch_policy(self):
        with pytest.raises(ConfigError):
            MachineConfig(fetch_policy="priority")

    def test_rejects_zero_threads(self):
        with pytest.raises(ConfigError):
            MachineConfig(num_threads=0)

    def test_rejects_tiny_window(self):
        with pytest.raises(ConfigError):
            MachineConfig(ruu_size=2, num_threads=2)

    def test_round_robin_is_accepted(self):
        assert MachineConfig(fetch_policy="round_robin").fetch_policy == "round_robin"


class TestThermalConfig:
    def test_seconds_per_cycle_scales_with_time_scale(self):
        fast = ThermalConfig(time_scale=2000.0)
        slow = ThermalConfig(time_scale=1.0, sensor_interval=20_000)
        assert fast.seconds_per_cycle == pytest.approx(2000.0 * slow.seconds_per_cycle)

    def test_cycles_from_seconds_round_trip(self):
        thermal = ThermalConfig()
        cycles = thermal.cycles_from_seconds(1.2e-3)
        assert cycles == pytest.approx(1.2e-3 / thermal.seconds_per_cycle, abs=1)

    def test_cycles_from_seconds_has_floor_of_one(self):
        assert ThermalConfig().cycles_from_seconds(1e-12) == 1

    def test_rejects_inverted_temperature_ladder(self):
        with pytest.raises(ConfigError):
            ThermalConfig(ambient_k=360.0)

    def test_rejects_sub_unity_time_scale(self):
        with pytest.raises(ConfigError):
            ThermalConfig(time_scale=0.5)

    @pytest.mark.parametrize(
        "field",
        ["block_time_constant_s", "local_time_constant_s",
         "spreader_time_constant_s"],
    )
    @pytest.mark.parametrize("value", [0.0, -1e-3])
    def test_rejects_non_positive_time_constants(self, field, value):
        # A zero capacitance would give the network NaN modes, silently.
        with pytest.raises(ConfigError):
            ThermalConfig(**{field: value})


class TestSedationConfig:
    def test_ewma_x_is_power_of_two_reciprocal(self):
        assert SedationConfig(ewma_shift=7).ewma_x == pytest.approx(1.0 / 128)

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ConfigError):
            SedationConfig(upper_threshold_k=355.0, lower_threshold_k=356.0)

    def test_rejects_zero_sample_interval(self):
        with pytest.raises(ConfigError):
            SedationConfig(sample_interval=0)

    @pytest.mark.parametrize(
        "make", [SimulationConfig, scaled_config, paper_config],
        ids=["default", "scaled", "paper"],
    )
    def test_ladder_sits_below_emergency(self, make):
        # Neither dataclass can see the other's default, so nothing at
        # construction stops an upper threshold edited above the emergency
        # temperature, which hands every detection to stop-and-go.
        config = make()
        assert (
            config.sedation.lower_threshold_k
            < config.sedation.upper_threshold_k
            < config.thermal.emergency_k
        )


class TestPresets:
    def test_paper_config_uses_paper_intervals(self):
        config = paper_config()
        assert config.quantum_cycles == 500_000_000
        assert config.thermal.sensor_interval == 20_000
        assert config.thermal.time_scale == 1.0
        assert config.sedation.sample_interval == 1000
        assert config.sedation.ewma_shift == 7

    def test_scaled_config_defaults(self):
        config = scaled_config()
        assert config.thermal.time_scale == DEFAULT_TIME_SCALE
        assert config.quantum_cycles == 250_000

    def test_scaled_config_preserves_real_time_ratios(self):
        """Doubling the time scale halves the quantum and the intervals."""
        base = scaled_config(time_scale=2000)
        double = scaled_config(time_scale=4000)
        assert double.quantum_cycles == pytest.approx(base.quantum_cycles / 2, rel=0.1)
        assert double.thermal.sensor_interval == pytest.approx(
            base.thermal.sensor_interval / 2, abs=5
        )

    def test_scaled_config_keeps_ewma_real_time_window(self):
        """window = 2**shift * sample * time_scale stays ~constant."""
        windows = []
        for scale in (1000.0, 2000.0, 4000.0):
            config = scaled_config(time_scale=scale)
            sedation = config.sedation
            windows.append(
                (1 << sedation.ewma_shift) * sedation.sample_interval * scale
            )
        assert max(windows) / min(windows) < 3.0

    def test_scaled_config_rejects_tiny_scale(self):
        with pytest.raises(ConfigError):
            scaled_config(time_scale=0.1)


class TestSimulationConfigHelpers:
    def test_with_policy_returns_new_config(self):
        base = SimulationConfig()
        other = base.with_policy("sedation")
        assert other.dtm_policy == "sedation"
        assert base.dtm_policy == "stop_and_go"

    def test_with_ideal_sink_sets_both_flags(self):
        config = SimulationConfig().with_ideal_sink()
        assert config.thermal.ideal_sink is True
        assert config.dtm_policy == "ideal"

    def test_with_convection_resistance(self):
        config = SimulationConfig().with_convection_resistance(0.65)
        assert config.thermal.convection_resistance_k_per_w == pytest.approx(0.65)

    def test_with_thresholds(self):
        config = SimulationConfig().with_thresholds(357.0, 354.5)
        assert config.sedation.upper_threshold_k == pytest.approx(357.0)
        assert config.sedation.lower_threshold_k == pytest.approx(354.5)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigError):
            SimulationConfig(dtm_policy="prayer")

    def test_configs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SimulationConfig().quantum_cycles = 1
