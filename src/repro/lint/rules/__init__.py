"""Repo-specific rules.  Importing this package registers every rule."""

from __future__ import annotations

from . import (
    constants,
    determinism,
    fingerprint,
    payloads,
    taint,
    telemetry,
)

__all__ = [
    "constants",
    "determinism",
    "fingerprint",
    "payloads",
    "taint",
    "telemetry",
]
