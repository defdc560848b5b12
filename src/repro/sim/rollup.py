"""Campaign rollups: one summary document per ``run_many`` fan-out.

A campaign of thousands of runs leaves thousands of per-run entries in
``.repro_cache/`` and (optionally) per-run event logs; answering "what did
that sweep do?" should not require re-reading all of them.  A *rollup* is
a small JSON document — per-policy aggregates, failure counts, and the
merged telemetry snapshot — written beside the run cache under
``<cache_dir>/rollups/<key>.json`` whenever ``run_many`` completes a
multi-spec batch, and served by ``repro campaign-summary``.

Rollups obey the same determinism discipline as the run cache:

* the **key** is a SHA-256 over the sorted member fingerprints (plus the
  rollup schema), so the same campaign — in any spec order, from cache or
  fresh — maps to the same rollup file;
* the **payload** is a pure function of the member specs and results
  (process-global runner counters are deliberately excluded), so
  re-running a cached campaign rewrites identical bytes;
* writes are atomic (pid-tagged tmp + ``os.replace``), racing writers
  publish identical content, and unreadable rollups are reported as
  errors, never misread.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from ..errors import SimulationError
from ..telemetry.metrics import merge_metric_snapshots
from .stats import RunResult

#: Rollup payload schema.  Bump on incompatible payload-shape changes;
#: old rollups are then ignored by readers rather than misread.
ROLLUP_SCHEMA = 1

#: Subdirectory of the run cache that holds rollup documents.
ROLLUP_DIR = "rollups"


def rollup_key(fingerprints: list[str]) -> str:
    """Deterministic key for a campaign: hash of its member run keys.

    Sorted + deduplicated, so spec order and within-batch duplicates do
    not change the identity of the campaign.
    """
    blob = json.dumps(
        {"schema": ROLLUP_SCHEMA, "members": sorted(set(fingerprints))},
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def build_rollup(entries: list[tuple]) -> dict:
    """Aggregate one campaign into a rollup payload.

    ``entries`` is ``[(spec, fingerprint, outcome), ...]`` in input order,
    where ``outcome`` is a :class:`~repro.sim.stats.RunResult` or a
    :class:`~repro.sim.parallel.RunFailure`.  Duplicate fingerprints
    collapse to one member (they are one simulation).
    """
    seen: set[str] = set()
    members: list[tuple] = []
    for spec, fingerprint, outcome in entries:
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        members.append((spec, fingerprint, outcome))

    policies: dict[str, dict] = {}
    snapshots: list[dict] = []
    failures = 0
    workload_mixes: set[str] = set()
    for spec, _fingerprint, result in members:
        workload_mixes.add("+".join(spec.workloads))
        if not isinstance(result, RunResult):
            failures += 1
            continue
        bucket = policies.setdefault(
            result.policy,
            {
                "runs": 0,
                "total_cycles": 0,
                "emergencies": 0,
                "sedations": 0,
                "peak_temperature_k": 0.0,
                "ipc_sums": [],
            },
        )
        bucket["runs"] += 1
        bucket["total_cycles"] += result.cycles
        bucket["emergencies"] += result.emergencies
        bucket["sedations"] += result.sedations
        bucket["peak_temperature_k"] = max(
            bucket["peak_temperature_k"], result.peak_temperature_k
        )
        ipcs = [t.ipc for t in result.threads]
        sums = bucket["ipc_sums"]
        while len(sums) < len(ipcs):
            sums.append(0.0)
        for i, ipc in enumerate(ipcs):
            sums[i] += ipc
        snapshot = getattr(result, "telemetry", None)
        if snapshot:
            snapshots.append(snapshot)

    for bucket in policies.values():
        runs = bucket["runs"]
        bucket["mean_ipc"] = [total / runs for total in bucket.pop("ipc_sums")]

    return {
        "schema": ROLLUP_SCHEMA,
        "key": rollup_key([fingerprint for _, fingerprint, _ in members]),
        "runs": len(members),
        "failures": failures,
        "workloads": sorted(workload_mixes),
        "policies": {name: policies[name] for name in sorted(policies)},
        "telemetry": merge_metric_snapshots(snapshots),
        "fingerprints": sorted(seen),
    }


def _rollup_path(cache_dir: str | Path, key: str) -> Path:
    return Path(cache_dir) / ROLLUP_DIR / f"{key}.json"


def write_rollup(cache_dir: str | Path, payload: dict) -> Path:
    """Atomically publish one rollup document; returns its path."""
    path = _rollup_path(cache_dir, payload["key"])
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(payload, separators=(",", ":")))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_rollup(cache_dir: str | Path, key: str) -> dict:
    """Read one rollup by key (unique-prefix match, like git)."""
    directory = Path(cache_dir) / ROLLUP_DIR
    matches = sorted(directory.glob(f"{key}*.json")) if key else []
    if not matches:
        raise SimulationError(
            f"no rollup matching {key!r} under {directory}"
        )
    if len(matches) > 1:
        raise SimulationError(
            f"rollup key {key!r} is ambiguous "
            f"({len(matches)} matches under {directory})"
        )
    try:
        payload = json.loads(matches[0].read_text())
    except (OSError, ValueError) as error:
        raise SimulationError(
            f"cannot read rollup {matches[0]}: {error}"
        ) from error
    if payload.get("schema") != ROLLUP_SCHEMA:
        raise SimulationError(
            f"rollup {matches[0]} has schema {payload.get('schema')} "
            f"(this build reads schema {ROLLUP_SCHEMA})"
        )
    return payload


def list_rollups(cache_dir: str | Path) -> list[dict]:
    """Every readable rollup under the cache, sorted by key.

    Unreadable or foreign-schema documents are skipped (listing is a
    browse operation; ``load_rollup`` is where corruption is loud).
    """
    directory = Path(cache_dir) / ROLLUP_DIR
    rollups = []
    for path in sorted(directory.glob("*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if payload.get("schema") == ROLLUP_SCHEMA:
            rollups.append(payload)
    return rollups
