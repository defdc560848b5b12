"""Fingerprints and µop streams must not depend on the process's hash salt.

Python salts ``str`` hashing per process (``PYTHONHASHSEED``).  A seed or
a cache key derived from ``hash()`` of a name therefore changes from one
interpreter to the next, which is how the figures of an early version of
this repository drifted between runs.  This module runs :func:`probe` in
two child interpreters with different salts and compares both with the
value computed in the test process.

:data:`PINNED` fixes the fingerprint bytes themselves: a cache key that
changes without a ``CACHE_SCHEMA`` bump silently orphans every cache.

Run it directly to print the probe as JSON:
``PYTHONPATH=src python tests/test_cross_process.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Fig. 5's gzip configurations: (co-runner, policy).
FIG5 = [
    (other, policy)
    for other in ("idle", "variant1", "variant2", "variant3")
    for policy in ("ideal-sink", "stop_and_go", "sedation")
]

#: (workload, hardware thread) streams to digest.
STREAMS = (("gzip", 0), ("mcf", 0), ("variant2", 1))

UOPS = 2_000


def probe() -> dict:
    """Spec fingerprints of the Fig. 5 grid and digests of three streams."""
    from repro.config import scaled_config
    from repro.sim import RunSpec, spec_fingerprint
    from repro.workloads.registry import make_source

    base = scaled_config(time_scale=20_000.0, quantum_cycles=3_000)
    fingerprints = []
    for other, policy in FIG5:
        if policy == "ideal-sink":
            config = base.with_ideal_sink()
        else:
            config = base.with_policy(policy)
        fingerprints.append(spec_fingerprint(RunSpec(("gzip", other), config)))
    streams = {}
    for name, tid in STREAMS:
        source = make_source(name, tid, base.machine, base.thermal, seed=base.seed)
        digest = hashlib.sha256()
        for _ in range(UOPS):
            uop = source.next_uop()
            static = (
                uop.thread, uop.pc, uop.opclass, uop.dest, uop.srcs,
                uop.address, uop.taken, uop.mispredict,
            )
            digest.update(repr(static).encode())
        streams[name] = digest.hexdigest()
    return {"fingerprints": fingerprints, "streams": streams}


@pytest.fixture(scope="module")
def in_process() -> dict:
    return probe()


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_probe_is_independent_of_the_hash_salt(hash_seed, in_process):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    child = subprocess.run(
        [sys.executable, __file__],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert json.loads(child.stdout) == in_process


#: sha256 cache keys of one spec of each shape, at ``CACHE_SCHEMA`` 2.
PINNED = {
    "run": "45dded0e679604ca9f6dbe683a112ebbfdab11f17cb584b1cd741827aa26f3c1",
    "telemetry": "527ec0eaa257ebeba1b90637bb3b7cd09c7ea80cee342346f37e6521336afd84",
    "trace": "09fa9ba154eca33d456aef2df729f2f45440e0e868026cd5f75df95c8bd4ae2c",
    "quantum": "1a241433cc96da88ea7e2d2168f7250c74b569d1f52c8d1b43320d5d37f3412c",
    "faults": "2a339fc4b3f84d5501b23bb9340acd9e22bb6b3c1923834723a95649330fcea3",
    "campaign": "0105322d6169f7003c872992abce15d632a8f3e63dddc9856f8154c38adb5462",
}


def pinned_specs() -> dict:
    from repro.config import scaled_config
    from repro.faults import FaultPlan, SensorFaultPlan, WorkerFaultPlan
    from repro.sim import CampaignSpec, RunSpec

    base = scaled_config(time_scale=20_000.0, quantum_cycles=3_000)
    sedation = base.with_policy("sedation")
    faults = FaultPlan(
        seed=3,
        sensor=SensorFaultPlan(mode="dropout", rate=0.2),
        worker=WorkerFaultPlan(fail_attempts=1),
    )
    return {
        "run": RunSpec(("gzip", "variant2"), sedation),
        "telemetry": RunSpec(("gzip", "variant2"), sedation, telemetry=True),
        "trace": RunSpec(("gzip", "variant2"), sedation, trace=True),
        "quantum": RunSpec(
            ("mcf", "idle"), base.with_ideal_sink(), quantum_cycles=2_000
        ),
        "faults": RunSpec(("gcc", "swim"), base.with_faults(faults)),
        "campaign": CampaignSpec(
            ("gzip", "variant2"), base.with_policy("stop_and_go"), quanta=3
        ),
    }


def test_fingerprints_match_their_pins():
    from repro.sim import spec_fingerprint

    assert {
        name: spec_fingerprint(spec) for name, spec in pinned_specs().items()
    } == PINNED


if __name__ == "__main__":
    print(json.dumps(probe()))
