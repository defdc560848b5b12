"""Power model tests: energy tables and per-interval accounting."""

import pytest

from repro.blocks import BLOCK_IDS, INT_RF, NUM_BLOCKS
from repro.config import MachineConfig
from repro.errors import ConfigError, SimulationError
from repro.isa import assemble
from repro.pipeline import SMTCore
from repro.pipeline.banks import stream_cursor
from repro.power import EnergyModel, PowerAccountant
from repro.workloads.program_source import ProgramSource

FREQ = 4.0e9


class TestEnergyModel:
    def test_default_covers_every_block(self):
        model = EnergyModel.default()
        assert len(model.energy_j) == NUM_BLOCKS
        assert len(model.leakage_w) == NUM_BLOCKS
        assert all(e > 0 for e in model.energy_j)

    def test_override_single_block(self):
        model = EnergyModel.default(energy_nj={"int_rf": 0.5})
        assert model.energy_j[INT_RF] == pytest.approx(0.5e-9)

    def test_unknown_block_override_rejected(self):
        with pytest.raises(ConfigError):
            EnergyModel.default(energy_nj={"alu9000": 1.0})
        with pytest.raises(ConfigError):
            EnergyModel.default(leakage_w={"alu9000": 1.0})

    def test_negative_energy_rejected(self):
        with pytest.raises(ConfigError):
            EnergyModel.default(energy_nj={"int_rf": -0.5})

    def test_block_power_formula(self):
        """1 access/cycle at 4 GHz with 0.1 nJ/access = 0.4 W dynamic."""
        model = EnergyModel.default(energy_nj={"int_rf": 0.1})
        seconds = 1000 / FREQ
        power = model.block_power(INT_RF, 1000, seconds)
        expected = 0.4 + model.leakage_w[INT_RF]
        assert power == pytest.approx(expected)

    def test_block_power_rejects_zero_interval(self):
        with pytest.raises(ConfigError):
            EnergyModel.default().block_power(INT_RF, 10, 0.0)

    def test_typical_powers_exceed_leakage(self):
        model = EnergyModel.default()
        typical = model.typical_powers(FREQ)
        for block in range(NUM_BLOCKS):
            assert typical[block] >= model.leakage_w[block]

    def test_total_leakage(self):
        model = EnergyModel.default()
        assert model.total_leakage_w == pytest.approx(sum(model.leakage_w))


def _make_core():
    adds = "L:\n" + "addl $1, $25, $26\n" * 16 + "br L"
    sources = [
        stream_cursor(0, ProgramSource(assemble(adds, name="adds"), 0)),
        stream_cursor(1, ProgramSource(assemble("halt", name="idle"), 1)),
    ]
    core = SMTCore(MachineConfig(), sources)
    for source in sources:
        source.prefill(core.hierarchy)
    return core


class TestPowerAccountant:
    def test_idle_core_dissipates_leakage_only(self):
        core = _make_core()
        model = EnergyModel.default()
        accountant = PowerAccountant(core, model, FREQ)
        core.skip_cycles(100)
        powers = accountant.block_powers()
        assert powers == pytest.approx(list(model.leakage_w))

    def test_active_rf_power_tracks_access_rate(self):
        core = _make_core()
        model = EnergyModel.default()
        accountant = PowerAccountant(core, model, FREQ)
        core.run_cycles(1000)
        powers = accountant.block_powers()
        rate = core.access_counts[0][INT_RF] / 1000
        expected = rate * model.energy_j[INT_RF] * FREQ + model.leakage_w[INT_RF]
        assert powers[INT_RF] == pytest.approx(expected, rel=1e-6)

    def test_interval_snapshot_advances(self):
        core = _make_core()
        accountant = PowerAccountant(core, EnergyModel.default(), FREQ)
        core.run_cycles(500)
        first = accountant.block_powers()
        core.skip_cycles(500)
        second = accountant.block_powers()
        assert second[INT_RF] < first[INT_RF]

    def test_zero_length_interval_rejected(self):
        core = _make_core()
        accountant = PowerAccountant(core, EnergyModel.default(), FREQ)
        core.run_cycles(10)
        accountant.block_powers()
        with pytest.raises(SimulationError):
            accountant.block_powers()

    def test_dynamic_scale_reduces_dynamic_only(self):
        core = _make_core()
        model = EnergyModel.default()
        core.run_cycles(1000)
        accountant_full = PowerAccountant(core, model, FREQ)
        core.run_cycles(1000)
        scaled = accountant_full.block_powers(dynamic_scale=0.5)
        dynamic = scaled[INT_RF] - model.leakage_w[INT_RF]
        rate = (core.access_counts[0][INT_RF]) / core.cycle  # approx
        assert dynamic > 0
        # Halving the scale halves only the dynamic component.
        core.run_cycles(1000)
        unscaled = accountant_full.block_powers(dynamic_scale=1.0)
        assert (unscaled[INT_RF] - model.leakage_w[INT_RF]) == pytest.approx(
            2 * dynamic, rel=0.25
        )

    def test_idle_powers_skips_interval(self):
        core = _make_core()
        model = EnergyModel.default()
        accountant = PowerAccountant(core, model, FREQ)
        core.skip_cycles(100)
        powers = accountant.idle_powers(100)
        assert powers == list(model.leakage_w)
        core.run_cycles(100)
        active = accountant.block_powers()
        assert active[INT_RF] > model.leakage_w[INT_RF]

    def test_thread_energy_attribution(self):
        core = _make_core()
        accountant = PowerAccountant(core, EnergyModel.default(), FREQ)
        core.run_cycles(1000)
        accountant.block_powers()
        assert accountant.thread_energy_j[0] > 0
        assert accountant.thread_energy_j[1] == pytest.approx(0.0, abs=1e-9)

    def test_total_chip_power_includes_other(self):
        core = _make_core()
        model = EnergyModel.default()
        accountant = PowerAccountant(core, model, FREQ)
        core.run_cycles(100)
        powers = accountant.block_powers()
        assert accountant.total_chip_power(powers) == pytest.approx(
            sum(powers) + model.other_power_w
        )
