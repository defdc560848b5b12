"""Whole-run invariants over random policies, seeds and fault plans (hypothesis).

Three properties every :class:`~repro.sim.Simulator` run must keep,
whatever the DTM policy, workload seed or injected fault:

* each thread's normal + cooling + sedated cycles add up to the run;
* selective sedation never sedates the last unsedated thread (the
  ``len(candidates) < 2`` guard in ``core/sedation.py``);
* no emergency is counted while the hottest block stayed below the
  emergency temperature.

Quanta stay at 4k cycles or less so the whole module runs in seconds.
"""

from __future__ import annotations

import dataclasses

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import scaled_config
from repro.faults import (
    ActuatorFaultPlan,
    FaultPlan,
    SamplerFaultPlan,
    SensorFaultPlan,
)
from repro.sim import Simulator
from repro.workloads import intermittent_plan

POLICIES = ("ideal", "stop_and_go", "dvfs", "ttdfs", "fetch_gating", "sedation")
PAIRS = (("gzip", "variant2"), ("gcc", "swim"), ("swim", "variant3"), ("mcf", "idle"))


def _config(policy: str, seed: int, quantum: int, faults: str | None):
    config = scaled_config(time_scale=20_000.0, quantum_cycles=quantum, seed=seed)
    config = config.with_policy(policy)
    if faults is None:
        return config
    plan = {
        "sensor": lambda: FaultPlan(
            seed=seed, sensor=SensorFaultPlan(mode="dropout", rate=0.3)
        ),
        "sampler": lambda: FaultPlan(
            seed=seed, sampler=SamplerFaultPlan(miss_rate=0.3)
        ),
        "actuator": lambda: FaultPlan(
            seed=seed, actuator=ActuatorFaultPlan(fail_rate=0.3, delay_cycles=200)
        ),
        "attacker": lambda: FaultPlan(
            seed=seed,
            attacker=intermittent_plan(config.thermal, 1.0e-3, 1.0e-3),
        ),
    }[faults]()
    return dataclasses.replace(config, faults=plan)


def _run_guarded(config, workloads):
    """Run, checking after every sedate/throttle that some live thread is
    still neither sedated nor throttled."""
    sim = Simulator(config, list(workloads))
    core = sim.core
    engaged: list[int] = []

    def check_one_left(tid: int) -> None:
        live = [t for t in core.threads if not t.halted]
        if len(live) >= 2:
            assert any(
                not t.sedated and not t.throttle_modulus for t in live
            ), f"thread {tid} was the last unsedated thread"
        engaged.append(tid)

    set_sedated, set_throttled = core.set_sedated, core.set_throttled

    def sedate(tid, sedated):
        set_sedated(tid, sedated)
        if sedated:
            check_one_left(tid)

    def throttle(tid, modulus):
        set_throttled(tid, modulus)
        if modulus:
            check_one_left(tid)

    core.set_sedated, core.set_throttled = sedate, throttle
    return sim.run(), engaged


run_shapes = st.tuples(
    st.sampled_from(POLICIES),
    st.sampled_from(PAIRS),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=1_000, max_value=4_000),
    st.sampled_from((None, "sensor", "sampler", "actuator", "attacker")),
)


@given(run_shapes)
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_run_invariants(shape):
    policy, pair, seed, quantum, faults = shape
    config = _config(policy, seed, quantum, faults)
    result, _ = _run_guarded(config, pair)

    assert result.cycles == quantum
    for thread in result.threads:
        assert thread.cycles == result.cycles
        assert (
            thread.cycles_normal + thread.cycles_cooling + thread.cycles_sedated
            == thread.cycles
        ), thread
    if result.peak_temperature_k < config.thermal.emergency_k:
        assert result.emergencies == 0
        assert not any(result.emergencies_per_block)


def test_sedation_shape_exercises_the_guard():
    """The attack pair sedates within the property's 4k-cycle budget, so
    the last-thread check above is not vacuous."""
    result, engaged = _run_guarded(
        _config("sedation", 42, 4_000, None), ("gzip", "variant2")
    )
    assert result.sedations > 0 and engaged
