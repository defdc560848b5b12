"""Fingerprints and µop streams must not depend on the process's hash salt.

Python salts ``str`` hashing per process (``PYTHONHASHSEED``).  A seed or
a cache key derived from ``hash()`` of a name therefore changes from one
interpreter to the next, which is how the figures of an early version of
this repository drifted between runs.  This module runs :func:`probe` in
two child interpreters with different salts and compares both with the
value computed in the test process.

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


if __name__ == "__main__":
    print(json.dumps(probe()))
