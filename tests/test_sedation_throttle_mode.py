"""Throttled-sedation ablation tests (gate vs throttle)."""

import dataclasses

import pytest

from repro.config import SedationConfig, scaled_config
from repro.errors import ConfigError, PipelineError
from repro.sim import run_workloads

CFG = scaled_config(time_scale=8000.0, quantum_cycles=15_000)


def throttle_config(modulus=8):
    sedation = dataclasses.replace(
        CFG.sedation, sedation_mode="throttle", throttle_modulus=modulus
    )
    return dataclasses.replace(CFG, sedation=sedation).with_policy("sedation")


class TestConfig:
    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            SedationConfig(sedation_mode="nap")
        with pytest.raises(ConfigError):
            SedationConfig(sedation_mode="throttle", throttle_modulus=1)

    def test_default_is_the_papers_gate(self):
        assert SedationConfig().sedation_mode == "gate"


class TestThrottleMechanics:
    def test_core_throttle_slows_fetch(self):
        from repro.config import MachineConfig
        from repro.isa import assemble
        from repro.pipeline import SMTCore
        from repro.pipeline.banks import stream_cursor
        from repro.workloads.program_source import ProgramSource

        adds = "L:\n" + "addl $1, $25, $26\n" * 16 + "br L"
        sources = [
            stream_cursor(0, ProgramSource(assemble(adds, name="a"), 0)),
            stream_cursor(1, ProgramSource(assemble(adds, name="b"), 1)),
        ]
        core = SMTCore(MachineConfig(), sources)
        for source in sources:
            source.prefill(core.hierarchy)
        core.run_cycles(500)
        baseline = core.threads[0].committed
        core.set_throttled(0, 8)
        before = core.threads[0].committed
        core.run_cycles(500)
        throttled_rate = core.threads[0].committed - before
        assert throttled_rate < 0.5 * baseline

    def test_negative_modulus_rejected(self):
        from repro.config import MachineConfig
        from repro.isa import assemble
        from repro.pipeline import SMTCore
        from repro.pipeline.banks import stream_cursor
        from repro.workloads.program_source import ProgramSource

        core = SMTCore(
            MachineConfig(),
            [stream_cursor(i, ProgramSource(assemble("halt"), i)) for i in (0, 1)],
        )
        with pytest.raises(PipelineError):
            core.set_throttled(0, -1)


class TestThrottleDefense:
    def test_throttle_mode_also_defends(self):
        attacked = run_workloads(
            CFG.with_policy("stop_and_go"), ["gzip", "variant2"]
        )
        throttled = run_workloads(throttle_config(), ["gzip", "variant2"])
        assert throttled.threads[0].ipc > attacked.threads[0].ipc
        assert throttled.emergencies <= attacked.emergencies

    def test_throttled_attacker_keeps_some_progress(self):
        """The ablation's trade-off: the culprit is slowed, not frozen."""
        gated = run_workloads(CFG.with_policy("sedation"), ["gzip", "variant2"])
        throttled = run_workloads(throttle_config(), ["gzip", "variant2"])
        # Both policies defend; the throttled attacker retains throughput
        # during its penalty windows (it is never fully fetch-gated).
        assert throttled.threads[1].committed > 0
        assert gated.threads[0].ipc > 0.8 * throttled.threads[0].ipc
