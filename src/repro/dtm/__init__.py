"""Dynamic thermal management policies: ideal, stop-and-go, DVFS, TTDFS,
fetch gating, and selective sedation."""

from .base import DTMPolicy
from .build import build_policy
from .dvfs import DVFS
from .fetch_gating import FetchGating
from .sedation import SedationPolicy
from .stop_and_go import StopAndGo
from .ttdfs import TTDFS

__all__ = [
    "DTMPolicy",
    "DVFS",
    "FetchGating",
    "SedationPolicy",
    "StopAndGo",
    "TTDFS",
    "build_policy",
]
