"""Repo-specific rules.  Importing this package registers every rule."""

from __future__ import annotations

from . import (
    banks,
    constants,
    determinism,
    fingerprint,
    payloads,
    taint,
    telemetry,
    thresholds,
)

__all__ = [
    "banks",
    "constants",
    "determinism",
    "fingerprint",
    "payloads",
    "taint",
    "telemetry",
    "thresholds",
]
