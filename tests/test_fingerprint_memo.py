"""The memoized fingerprint hashes the same preimage as a plain encoding.

:func:`~repro.sim.parallel.spec_fingerprint` composes its JSON from the
memoized text of each frozen sub-config, keyed by object identity.  These
tests hold it to an independent reference, ``json.dumps`` of the payload
with ``dataclasses.asdict(config)``, over random configs and fault plans,
over configs whose ids are reused after the memo lets go of them, over
sub-configs rebuilt with one field changed, and from eight threads at once.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, scaled_config
from repro.faults import (
    AttackerFaultPlan,
    FaultPlan,
    SensorFaultPlan,
    WorkerFaultPlan,
)
from repro.sim import RunSpec, spec_fingerprint
from repro.sim import parallel
from repro.sim.results import FORMAT_VERSION


def reference(spec: RunSpec) -> str:
    payload = {
        "schema": parallel.CACHE_SCHEMA,
        "result_format": FORMAT_VERSION,
        "kind": "RunSpec",
        "config": dataclasses.asdict(spec.config),
        "workloads": list(spec.workloads),
        "quantum_cycles": spec.quantum_cycles,
        "trace": spec.trace,
    }
    if spec.telemetry:
        payload["telemetry"] = True
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


POLICIES = ("ideal", "stop_and_go", "dvfs", "ttdfs", "fetch_gating",
            "sedation")

sensor_plans = st.one_of(
    st.none(),
    st.builds(
        SensorFaultPlan,
        mode=st.sampled_from(["stuck_at", "bias_drift"]),
        start_cycle=st.integers(0, 10**6),
        # Any float, NaN and infinities included: JSON spells them too.
        stuck_k=st.none() | st.floats(),
        blocks=st.none() | st.lists(st.integers(0, 15), max_size=4).map(tuple),
        bias_k_per_sample=st.floats(-1.0, 1.0),
    ),
    st.builds(SensorFaultPlan, mode=st.just("dropout"),
              rate=st.floats(0.01, 1.0)),
)

fault_plans = st.one_of(
    st.none(),
    st.builds(
        FaultPlan,
        seed=st.integers(0, 2**32),
        sensor=sensor_plans,
        attacker=st.none() | st.builds(
            AttackerFaultPlan,
            period_cycles=st.integers(2, 10**5),
            on_fraction=st.floats(0.01, 0.99),
            start_on=st.booleans(),
            threads=st.none() | st.tuples(st.integers(0, 1)),
        ),
        worker=st.none() | st.builds(
            WorkerFaultPlan,
            fail_attempts=st.integers(0, 3),
            interrupt_attempts=st.integers(0, 2),
        ),
    ),
)


@st.composite
def configs(draw):
    config = scaled_config(
        time_scale=draw(st.sampled_from([2000.0, 4000.0, 20000.0])),
        quantum_cycles=draw(st.integers(1000, 10**6)),
        seed=draw(st.integers(0, 2**31)),
    ).with_policy(draw(st.sampled_from(POLICIES)))
    lower = draw(st.floats(350.0, 355.0))
    return dataclasses.replace(
        config.with_thresholds(lower + draw(st.floats(0.1, 3.0)), lower),
        machine=dataclasses.replace(
            config.machine,
            fetch_policy=draw(st.sampled_from(["icount", "round_robin"])),
            ruu_partitioned=draw(st.booleans()),
            l2=CacheConfig(2**draw(st.integers(16, 22)), 8, 64,
                           draw(st.integers(1, 40)), name="l2"),
        ),
        thermal=dataclasses.replace(
            config.thermal,
            convection_resistance_k_per_w=draw(st.floats(0.1, 5.0)),
            sensor_noise_k=draw(st.floats(0.0, 2.0)),
            ideal_sink=draw(st.booleans()),
        ),
        faults=draw(fault_plans),
    )


specs = st.builds(
    RunSpec,
    workloads=st.lists(
        st.sampled_from(["gzip", "variant2", "mcf", "idle", "gcc"]),
        min_size=1, max_size=2,
    ).map(tuple),
    config=configs(),
    quantum_cycles=st.none() | st.integers(1, 10**6),
    trace=st.booleans(),
    telemetry=st.booleans(),
)


@given(specs, st.sampled_from(POLICIES))
@settings(max_examples=200, deadline=None)
def test_fingerprint_equals_the_plain_encoding(spec, policy):
    key = spec_fingerprint(spec)
    assert key == reference(spec)
    # Again from the memo, and for a sibling sharing every sub-config.
    assert spec_fingerprint(spec) == key
    sibling = dataclasses.replace(spec, config=spec.config.with_policy(policy))
    assert spec_fingerprint(sibling) == reference(sibling)


def test_reused_ids_never_serve_a_stale_key():
    """Configs built and dropped in a loop: every key matches the reference
    after the memo has emptied and freed nodes' ids were handed out again."""
    seen: set[int] = set()
    reused = False
    for i in range(2 * parallel._CANONICAL_LIMIT // 5):
        config = scaled_config(time_scale=4000.0, seed=i % 5).with_thresholds(
            356.0 + (i % 7) / 10, 354.0 + (i % 3) / 10
        )
        spec = RunSpec(("gzip", "variant2"), config)
        assert spec_fingerprint(spec) == reference(spec)
        node_ids = {id(config), id(config.sedation), id(config.thermal)}
        reused = reused or bool(node_ids & seen)
        seen |= node_ids
        del spec, config
        gc.collect(0)
    assert reused
    assert len(parallel._CANONICAL) <= parallel._CANONICAL_LIMIT


def test_a_rebuilt_sub_config_gets_a_new_key():
    config = scaled_config(time_scale=4000.0, quantum_cycles=4000)
    spec = RunSpec(("gzip", "variant2"), config.with_policy("sedation"))
    key = spec_fingerprint(spec)
    changes = [
        dataclasses.replace(spec.config, thermal=dataclasses.replace(
            spec.config.thermal, sensor_noise_k=0.5)),
        dataclasses.replace(spec.config, machine=dataclasses.replace(
            spec.config.machine,
            l2=dataclasses.replace(spec.config.machine.l2, latency=13))),
        spec.config.with_faults(FaultPlan(worker=WorkerFaultPlan())),
    ]
    keys = {key}
    for changed in changes:
        other = dataclasses.replace(spec, config=changed)
        assert spec_fingerprint(other) == reference(other)
        keys.add(spec_fingerprint(other))
    assert len(keys) == 1 + len(changes)
    assert spec_fingerprint(spec) == key


def test_threads_sharing_a_small_memo_get_the_reference_keys(monkeypatch):
    """Eight threads fingerprint fresh configs while the memo keeps emptying."""
    monkeypatch.setattr(parallel, "_CANONICAL_LIMIT", 8)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    mismatches = []

    def fingerprint_many(worker):
        for i in range(60):
            config = scaled_config(time_scale=4000.0, seed=worker).with_thresholds(
                356.0 + (i % 9) / 10, 354.0
            )
            spec = RunSpec(("gzip", "variant2"), config)
            if spec_fingerprint(spec) != reference(spec):
                mismatches.append((worker, i))

    try:
        threads = [
            threading.Thread(target=fingerprint_many, args=(worker,))
            for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    assert mismatches == []
