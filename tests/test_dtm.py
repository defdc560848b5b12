"""DTM policy tests: hysteresis, DVFS scaling, sedation wrapper."""

import numpy as np
import pytest

from repro.blocks import INT_RF, NUM_BLOCKS
from repro.config import MachineConfig, SedationConfig
from repro.core import SelectiveSedationController, UsageMonitor
from repro.dtm import DTMPolicy, DVFS, SedationPolicy, StopAndGo
from repro.isa import assemble
from repro.pipeline import SMTCore
from repro.pipeline.banks import stream_cursor
from repro.thermal.sensors import SensorReading
from repro.workloads.program_source import ProgramSource


def reading(cycle, rf_temp, base=350.0):
    temps = np.full(NUM_BLOCKS, base)
    temps[INT_RF] = rf_temp
    return SensorReading(cycle, temps)


class TestIdealPolicy:
    def test_never_stalls(self):
        policy = DTMPolicy()
        policy.on_sensor(reading(0, 400.0))
        assert policy.global_stall is False
        assert policy.slowdown == 1


class TestStopAndGo:
    def test_stalls_at_emergency(self):
        policy = StopAndGo(emergency_k=358.0, resume_k=354.0)
        policy.on_sensor(reading(0, 358.1))
        assert policy.global_stall is True
        assert policy.engagements == 1

    def test_stays_stalled_between_thresholds(self):
        """Hysteresis: once stalled, the pipeline stays stalled until the
        hot spot cools all the way to the resume point."""
        policy = StopAndGo(358.0, 354.0)
        policy.on_sensor(reading(0, 358.1))
        policy.on_sensor(reading(10, 356.0))
        assert policy.global_stall is True
        policy.on_sensor(reading(20, 353.9))
        assert policy.global_stall is False

    def test_no_stall_below_emergency(self):
        policy = StopAndGo(358.0, 354.0)
        policy.on_sensor(reading(0, 357.9))
        assert policy.global_stall is False

    def test_counts_engagements(self):
        policy = StopAndGo(358.0, 354.0)
        for cycle, temp in [(0, 359), (1, 353), (2, 359), (3, 353)]:
            policy.on_sensor(reading(cycle, temp))
        assert policy.engagements == 2

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError):
            StopAndGo(354.0, 358.0)


class TestDVFS:
    def test_throttles_at_emergency(self):
        policy = DVFS(358.0, 354.0)
        policy.on_sensor(reading(0, 358.5))
        assert policy.slowdown == 2
        assert policy.power_scale == pytest.approx(0.85 * 0.85)
        assert policy.global_stall is False

    def test_restores_full_speed(self):
        policy = DVFS(358.0, 354.0)
        policy.on_sensor(reading(0, 358.5))
        policy.on_sensor(reading(1, 353.5))
        assert policy.slowdown == 1
        assert policy.power_scale == 1.0

    def test_rejects_unity_slowdown(self):
        with pytest.raises(ValueError):
            DVFS(358.0, 354.0, slowdown=1)


def make_sedation_policy():
    adds = "L:\n" + "addl $1, $25, $26\n" * 16 + "br L"
    slow = "L:\n" + "mull $1, $1, $26\n" * 4 + "br L"
    sources = [
        stream_cursor(0, ProgramSource(assemble(slow, name="slow"), 0)),
        stream_cursor(1, ProgramSource(assemble(adds, name="adds"), 1)),
    ]
    core = SMTCore(MachineConfig(), sources)
    for source in sources:
        source.prefill(core.hierarchy)
    config = SedationConfig()
    monitor = UsageMonitor(core, config)
    controller = SelectiveSedationController(core, monitor, config, 1000)
    policy = SedationPolicy(controller, emergency_k=358.0, resume_k=354.0)
    for _ in range(40):
        core.run_cycles(config.sample_interval)
        monitor.sample()
    return core, policy


class TestSedationPolicy:
    def test_upper_threshold_routes_to_controller(self):
        core, policy = make_sedation_policy()
        policy.on_sensor(reading(core.cycle, 356.5))
        assert core.threads[1].sedated is True
        assert policy.global_stall is False

    def test_safety_net_stalls_and_releases(self):
        core, policy = make_sedation_policy()
        policy.on_sensor(reading(core.cycle, 356.5))
        assert core.threads[1].sedated is True
        policy.on_sensor(reading(core.cycle + 10, 358.4))
        assert policy.global_stall is True
        assert policy.safety_net_engagements == 1
        assert core.threads[1].sedated is False  # stop-and-go restores all
        policy.on_sensor(reading(core.cycle + 20, 353.5))
        assert policy.global_stall is False

    def test_no_fsm_progress_while_stalled(self):
        core, policy = make_sedation_policy()
        policy.on_sensor(reading(core.cycle, 358.4))
        sedations_before = policy.controller.sedations
        policy.on_sensor(reading(core.cycle + 10, 356.7))
        assert policy.controller.sedations == sedations_before

    def test_reports_accessible_via_policy(self):
        core, policy = make_sedation_policy()
        policy.on_sensor(reading(core.cycle, 356.5))
        assert len(policy.reports.sedations()) == 1
