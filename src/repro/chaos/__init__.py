"""Deterministic infrastructure fault injection for campaign execution.

``repro.faults`` chaos-tests the *gyro platform*; this package
chaos-tests the *execution substrate* underneath it — worker processes,
shard result publishes, batch-manifest writes and result-store durable
writes.  Declare a seeded :class:`ChaosPlan` of failures (worker
crashes, errors, hangs, heartbeat loss, torn/slow/corrupted writes, ENOSPC,
kill-mid-rename), pass it to ``Campaign.run(chaos=...)`` (or activate it
with :func:`repro.chaos.runtime.active` around store operations), and
the hardened executor/manifest/store paths must ride every injected
failure out to results bit-identical to an uninjected run.
"""

from .models import (
    ChaosEvent,
    ChaosModel,
    ChaosPlan,
    CorruptShardPayload,
    Enospc,
    HeartbeatLoss,
    InjectedCrash,
    KillMidRename,
    SlowWrite,
    TornWrite,
    WorkerCrash,
    WorkerError,
    WorkerHang,
)
from .runtime import activate, active, current, deactivate, fire, fired_counts

__all__ = [
    "ChaosEvent",
    "ChaosModel",
    "ChaosPlan",
    "CorruptShardPayload",
    "Enospc",
    "HeartbeatLoss",
    "InjectedCrash",
    "KillMidRename",
    "SlowWrite",
    "TornWrite",
    "WorkerCrash",
    "WorkerError",
    "WorkerHang",
    "activate",
    "active",
    "current",
    "deactivate",
    "fire",
    "fired_counts",
]
