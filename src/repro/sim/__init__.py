"""Simulation driver: co-simulator, experiment harness, and statistics."""

from .batch import batch_fingerprint, simulate_lockstep, trajectory_key
from .campaign import CampaignResult, QuantumRecord, run_campaign
from .durable import (
    JOURNAL_DIR,
    CampaignJournal,
    CampaignState,
    cache_stats,
    derive_campaign_id,
    list_campaigns,
    quarantine_entries,
    replay,
    results_to_canonical_json,
    resume_campaign,
    run_durable,
)
from .experiment import ExperimentRunner, pair_spec, solo_spec
from .parallel import (
    RUNNER_METRICS,
    RunFailure,
    RunSpec,
    run_many,
    spec_fingerprint,
)
from .rollup import (
    ROLLUP_DIR,
    build_rollup,
    list_rollups,
    load_rollup,
    rollup_key,
    write_rollup,
)
from .simulator import Simulator, run_workloads
from .stats import RunResult, ThreadStats

__all__ = [
    "CampaignJournal",
    "CampaignResult",
    "CampaignState",
    "ExperimentRunner",
    "JOURNAL_DIR",
    "RUNNER_METRICS",
    "RunFailure",
    "RunResult",
    "RunSpec",
    "ROLLUP_DIR",
    "batch_fingerprint",
    "build_rollup",
    "cache_stats",
    "derive_campaign_id",
    "list_campaigns",
    "list_rollups",
    "load_rollup",
    "quarantine_entries",
    "replay",
    "results_to_canonical_json",
    "resume_campaign",
    "rollup_key",
    "run_durable",
    "run_many",
    "pair_spec",
    "run_workloads",
    "QuantumRecord",
    "run_campaign",
    "simulate_lockstep",
    "solo_spec",
    "spec_fingerprint",
    "trajectory_key",
    "Simulator",
    "ThreadStats",
    "write_rollup",
]
