"""Selective-sedation unit tests: monitor, detector, and the FSM.

These tests drive the controller with hand-crafted sensor readings so every
FSM path is exercised deterministically (the integration tests exercise the
same machinery end-to-end through the thermal model).
"""

import numpy as np
import pytest

from repro.blocks import INT_RF, NUM_BLOCKS
from repro.config import MachineConfig, SedationConfig
from repro.core import (
    OSReportLog,
    ReportKind,
    SelectiveSedationController,
    UsageMonitor,
    identify_culprit,
    rank_by_usage,
)
from repro.isa import assemble
from repro.pipeline import SMTCore
from repro.pipeline.banks import stream_cursor
from repro.thermal.sensors import SensorReading
from repro.workloads.program_source import ProgramSource

ADDS = "L:\n" + "addl $1, $25, $26\n" * 16 + "br L"
SLOW = "L:\n" + "mull $1, $1, $26\n" * 4 + "br L"


def make_core(num_threads=2, programs=None):
    programs = programs or [ADDS] * num_threads
    sources = [
        stream_cursor(i, ProgramSource(assemble(text, name=f"p{i}"), i))
        for i, text in enumerate(programs)
    ]
    core = SMTCore(MachineConfig(num_threads=num_threads), sources)
    for source in sources:
        source.prefill(core.hierarchy)
    return core


def reading(cycle, rf_temp, base=350.0):
    temps = np.full(NUM_BLOCKS, base)
    temps[INT_RF] = rf_temp
    return SensorReading(cycle, temps)


def make_controller(core, monitor=None, **sedation_kwargs):
    sedation_kwargs.setdefault("sample_interval", 25)
    config = SedationConfig(**sedation_kwargs)
    monitor = monitor or UsageMonitor(core, config)
    controller = SelectiveSedationController(
        core, monitor, config, expected_cooling_cycles=1000
    )
    return controller, monitor


def sample_forward(core, monitor, cycles, interval=25):
    for _ in range(cycles // interval):
        core.run_cycles(interval)
        monitor.sample()


class TestUsageMonitor:
    def test_rates_tracked_per_thread(self):
        core = make_core(programs=[ADDS, SLOW])
        controller, monitor = make_controller(core)
        sample_forward(core, monitor, 2000)
        fast = monitor.weighted_average(0, INT_RF)
        slow = monitor.weighted_average(1, INT_RF)
        assert fast > slow > 0

    def test_sedated_thread_average_frozen(self):
        """Paper: 'during sedation, the access-rate and the weighted average
        of the culprit thread are not computed at all'."""
        core = make_core()
        controller, monitor = make_controller(core)
        sample_forward(core, monitor, 2000)
        before = monitor.weighted_average(0, INT_RF)
        core.set_sedated(0, True)
        sample_forward(core, monitor, 2000)
        assert monitor.weighted_average(0, INT_RF) == pytest.approx(before)

    def test_release_does_not_create_phantom_burst(self):
        """The idle period must not accumulate into the first sample after
        release (the snapshot is kept up to date while sedated)."""
        core = make_core()
        controller, monitor = make_controller(core)
        sample_forward(core, monitor, 1000)
        core.set_sedated(0, True)
        sample_forward(core, monitor, 1000)
        core.set_sedated(0, False)
        before = monitor.weighted_average(0, INT_RF)
        core.run_cycles(25)
        monitor.sample()
        after = monitor.weighted_average(0, INT_RF)
        assert after < before + 2.0

    def test_flat_average_matches_cumulative_counts(self):
        core = make_core()
        controller, monitor = make_controller(core)
        core.run_cycles(1000)
        flat = monitor.flat_average(0, INT_RF)
        assert flat == pytest.approx(core.access_counts[0][INT_RF] / core.cycle)

    def test_skip_aligns_snapshot(self):
        core = make_core()
        controller, monitor = make_controller(core)
        core.run_cycles(500)
        monitor.skip()
        before = monitor.weighted_average(0, INT_RF)
        core.run_cycles(25)
        monitor.sample()
        # One ordinary sample, not a 525-cycle accumulation.
        assert monitor.weighted_average(0, INT_RF) <= before + 16.0


class TestDetector:
    def test_highest_average_wins(self):
        core = make_core(programs=[SLOW, ADDS])
        controller, monitor = make_controller(core)
        sample_forward(core, monitor, 2000)
        assert identify_culprit(monitor, INT_RF, [0, 1]) == 1

    def test_candidates_restrict_choice(self):
        core = make_core(programs=[SLOW, ADDS])
        controller, monitor = make_controller(core)
        sample_forward(core, monitor, 2000)
        assert identify_culprit(monitor, INT_RF, [0]) == 0

    def test_no_candidates(self):
        core = make_core()
        controller, monitor = make_controller(core)
        assert identify_culprit(monitor, INT_RF, []) is None

    def test_rank_by_usage_sorted(self):
        core = make_core(programs=[SLOW, ADDS])
        controller, monitor = make_controller(core)
        sample_forward(core, monitor, 2000)
        ranked = rank_by_usage(monitor, INT_RF, [0, 1])
        assert ranked[0][1] >= ranked[1][1]


class TestSedationFSM:
    def test_upper_trigger_sedates_culprit(self):
        core = make_core(programs=[SLOW, ADDS])
        controller, monitor = make_controller(core)
        sample_forward(core, monitor, 2000)
        controller.on_sensor(reading(core.cycle, 356.5))
        assert core.threads[1].sedated is True
        assert core.threads[0].sedated is False
        assert controller.sedations == 1

    def test_release_at_lower_threshold(self):
        core = make_core(programs=[SLOW, ADDS])
        controller, monitor = make_controller(core)
        sample_forward(core, monitor, 2000)
        controller.on_sensor(reading(core.cycle, 356.5))
        controller.on_sensor(reading(core.cycle + 100, 354.1))
        assert core.threads[1].sedated is False
        assert controller.releases == 1

    def test_no_double_sedation_while_waiting(self):
        core = make_core(programs=[SLOW, ADDS])
        controller, monitor = make_controller(core)
        sample_forward(core, monitor, 2000)
        controller.on_sensor(reading(core.cycle, 356.5))
        controller.on_sensor(reading(core.cycle + 10, 357.0))
        assert controller.sedations == 1  # still inside the waiting window

    def test_reexamination_sedates_second_culprit(self):
        """Multiple power-density threads: after 2x the cooling time with the
        resource still hot, the next-highest-average thread is sedated."""
        core = make_core(num_threads=3, programs=[SLOW, ADDS, ADDS])
        controller, monitor = make_controller(core)
        sample_forward(core, monitor, 2000)
        # Pin the usage ranking (thread 0 is the low-usage victim) so the
        # test is independent of fetch-arbitration details.
        for tid, value in ((0, 1.0), (1, 9.0), (2, 8.0)):
            monitor.set_weighted_average(tid, INT_RF, value)
        controller.on_sensor(reading(core.cycle, 356.5))
        assert len(controller.sedated_threads()) == 1
        # Deadline is 2 * 1000 cycles after the trigger.
        controller.on_sensor(reading(core.cycle + 2100, 356.6))
        assert len(controller.sedated_threads()) == 2
        # Victim (thread 0, lowest usage) must never be sedated: it is the
        # last unsedated thread.
        controller.on_sensor(reading(core.cycle + 4300, 356.6))
        assert 0 not in controller.sedated_threads()

    def test_last_unsedated_thread_exception(self):
        """'The last unsedated thread cannot degrade the performance of any
        other thread' — it keeps running even above the upper threshold."""
        core = make_core(num_threads=2)
        controller, monitor = make_controller(core)
        sample_forward(core, monitor, 2000)
        controller.on_sensor(reading(core.cycle, 356.5))
        controller.on_sensor(reading(core.cycle + 2100, 357.0))
        controller.on_sensor(reading(core.cycle + 4300, 357.5))
        assert len(controller.sedated_threads()) == 1

    def test_halted_threads_are_not_candidates(self):
        core = make_core(programs=[ADDS, "halt"])
        controller, monitor = make_controller(core)
        sample_forward(core, monitor, 2000)
        controller.on_sensor(reading(core.cycle, 356.5))
        # Thread 1 halted: thread 0 is effectively the last runnable thread.
        assert controller.sedated_threads() == set()

    def test_simultaneous_hot_blocks_sedate_only_one_thread(self):
        """When every block is hot at once, the first trigger sedates the
        culprit and the remaining blocks hit the last-unsedated-thread
        exception instead of cascading (two-context machine)."""
        core = make_core(programs=[SLOW, ADDS])
        controller, monitor = make_controller(core)
        sample_forward(core, monitor, 2000)
        temps = np.full(NUM_BLOCKS, 356.5)
        controller.on_sensor(SensorReading(core.cycle, temps))
        assert core.threads[1].sedated is True
        assert controller.sedations == 1
        # The sedating block cools: the thread is released even though other
        # blocks are still waiting (they never owned a sedation).
        cooled = np.full(NUM_BLOCKS, 356.5)
        cooled[INT_RF] = 354.0
        controller.on_sensor(SensorReading(core.cycle + 10, cooled))
        assert core.threads[1].sedated is False

    def test_safety_net_releases_everyone_and_resets(self):
        core = make_core(programs=[SLOW, ADDS])
        controller, monitor = make_controller(core)
        sample_forward(core, monitor, 2000)
        controller.on_sensor(reading(core.cycle, 356.5))
        assert controller.sedated_threads()
        controller.on_safety_net(core.cycle + 50, 358.2)
        assert controller.sedated_threads() == set()
        assert core.threads[1].sedated is False
        kinds = [e.kind for e in controller.reports.events]
        assert ReportKind.SAFETY_NET in kinds

    def test_os_reports_identify_offender(self):
        core = make_core(programs=[SLOW, ADDS])
        controller, monitor = make_controller(core)
        sample_forward(core, monitor, 2000)
        controller.on_sensor(reading(core.cycle, 356.5))
        sedations = controller.reports.sedations()
        assert len(sedations) == 1
        assert sedations[0].thread == 1
        assert sedations[0].block == INT_RF
        assert sedations[0].weighted_average > 0
        assert "thread 1" in sedations[0].describe()

    def test_report_log_counts_by_thread(self):
        log = OSReportLog()
        core = make_core(programs=[SLOW, ADDS])
        config = SedationConfig()
        monitor = UsageMonitor(core, config)
        controller = SelectiveSedationController(
            core, monitor, config, 1000, report_log=log
        )
        sample_forward(core, monitor, 2000)
        controller.on_sensor(reading(core.cycle, 356.5))
        assert log.sedation_counts_by_thread() == {1: 1}
        assert len(log) == 1
