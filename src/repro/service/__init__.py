"""Governed concurrent query serving (the multi-analyst MDM deployment).

Layers the paper's governance story for concurrency: releases are
writers, queries are readers, and an epoch-based readers-writer lock
guarantees every answer is consistent with exactly one release. See
``docs/architecture.md`` ("The governed serving layer").
"""

from repro.service.epoch_lock import EpochLock, EpochLockStats
from repro.service.serving import GovernedService, ServiceStats
from repro.service.workload import (
    IndustrialServingScenario, LatencyWrapper, analyst_panel,
    build_industrial_service, next_version_release,
)

__all__ = [
    "EpochLock", "EpochLockStats",
    "GovernedService", "ServiceStats",
    "IndustrialServingScenario", "LatencyWrapper", "analyst_panel",
    "build_industrial_service", "next_version_release",
]
