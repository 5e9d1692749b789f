"""Picklable chaos models fired at executor/manifest/store boundaries.

``repro.faults`` breaks the *device* on purpose; this module breaks the
*execution substrate* on purpose — worker processes, result-file writes,
manifest writes and store writes — so the orchestration layer can be
chaos-tested the same way the gyro platform is fault-tested.  Every
model is a small frozen (picklable) dataclass declaring *what breaks*
and *where*, collected into a :class:`ChaosPlan` that the campaign
runner activates around a run and ships to every shard worker.

Injection **sites** are named strings fired by the production code via
:func:`repro.chaos.runtime.fire` (a no-op when no plan is active):

=====================  ====================================================
``worker.start``       inside a shard worker, before it simulates
``shard.write``        inside a worker's result publish, after the temp
                       bytes are written and before the atomic rename
``manifest.write``     in the parent, before a batch-manifest write
``store.write``        before a result-store durable write begins
``store.rename``       between the store's fsync and its atomic rename
=====================  ====================================================

Determinism: a model fires exactly when its declared trigger matches —
site, optionally shard and attempt, an optional ``times`` budget, and an
optional ``probability`` resolved by a stable hash of the plan's seed
and the event coordinates (never by wall-clock randomness) — so a chaos
campaign replays the same failure schedule on every run with the same
seed.
"""

from __future__ import annotations

import errno
import os
import time
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Tuple

from ..common.exceptions import ConfigurationError, ReproError


class InjectedCrash(ReproError):
    """A chaos model simulating a process death *in the calling process*.

    Worker-side models really do die (``os._exit``); parent-side models
    (the store's kill-mid-rename) must not take the test runner down
    with them, so they raise this instead — deliberately outside
    ``OSError`` so no retry loop mistakes a simulated crash for a
    transient I/O failure.
    """


@dataclass(frozen=True)
class ChaosEvent:
    """One firing opportunity at an injection site."""

    site: str
    shard: Optional[int] = None
    attempt: Optional[int] = None
    path: Optional[str] = None
    heartbeat: Optional[object] = None


@dataclass(frozen=True)
class ChaosModel:
    """Base chaos model: a site trigger plus the failure to inject.

    Attributes:
        shard: only fire for this shard id (``None`` = any).
        attempt: only fire for this attempt number (``None`` = every
            attempt; most models default to 1 so "fail once, then
            recover" is the out-of-the-box behaviour).
        times: total firings allowed per activation (``None`` =
            unlimited) — an ENOSPC that clears after two writes is
            ``times=2``.
        probability: chance of firing per matching event, resolved
            deterministically from the plan seed (1.0 always fires).
    """

    site: ClassVar[str] = "?"

    shard: Optional[int] = None
    attempt: Optional[int] = None
    times: Optional[int] = None
    probability: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("probability must be within [0, 1]")
        if self.times is not None and self.times < 1:
            raise ConfigurationError("times must be >= 1 (or None)")

    def matches(self, event: ChaosEvent) -> bool:
        """Whether this model's declared trigger covers ``event``."""
        if self.site != event.site:
            return False
        if self.shard is not None and event.shard != self.shard:
            return False
        if self.attempt is not None and event.attempt != self.attempt:
            return False
        return True

    def fire(self, event: ChaosEvent) -> None:
        """Inject the failure (raise, sleep, corrupt or die)."""
        raise NotImplementedError

    def digest_token(self) -> str:
        """Stable textual identity (frozen-dataclass repr)."""
        return repr(self)


# ---------------------------------------------------------------------------
# worker-process failures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkerCrash(ChaosModel):
    """Kill the shard worker outright before it simulates.

    ``os._exit`` skips every handler — no error report, no result file,
    heartbeats stop mid-beat — exactly what an OOM kill or a segfault
    looks like from the parent.  The scheduler must notice the death
    (exit code / missed heartbeats) and reschedule immediately instead
    of burning the shard timeout.
    """

    site: ClassVar[str] = "worker.start"

    attempt: Optional[int] = 1
    exit_code: int = 86

    def fire(self, event: ChaosEvent) -> None:
        os._exit(self.exit_code)


@dataclass(frozen=True)
class WorkerError(ChaosModel):
    """Raise ``RuntimeError(message)`` in the worker before it simulates.

    Unlike :class:`WorkerCrash` the worker survives long enough to write
    its error report (exception class, message and truncated traceback),
    so the parent records an ``error`` attempt in the shard history.
    """

    site: ClassVar[str] = "worker.start"

    attempt: Optional[int] = 1
    message: str = "chaos: injected worker error"

    def fire(self, event: ChaosEvent) -> None:
        raise RuntimeError(self.message)


@dataclass(frozen=True)
class WorkerHang(ChaosModel):
    """Stall the worker's main thread for ``hang_s`` before simulating.

    The heartbeat thread keeps beating, so the parent sees a *live but
    slow* worker — the straggler case: it must keep waiting (up to the
    shard deadline) or launch a speculative backup, never declare the
    worker dead.
    """

    site: ClassVar[str] = "worker.start"

    attempt: Optional[int] = 1
    hang_s: float = 30.0

    def fire(self, event: ChaosEvent) -> None:
        time.sleep(self.hang_s)


@dataclass(frozen=True)
class HeartbeatLoss(ChaosModel):
    """Silence the worker's heartbeat, then stall its main thread.

    Models a frozen process (SIGSTOP, D-state I/O wait): still alive by
    ``is_alive()`` yet publishing nothing.  Only the heartbeat staleness
    check can tell this apart from a healthy slow worker, so the parent
    must declare it dead and reschedule well before the shard timeout.
    """

    site: ClassVar[str] = "worker.start"

    attempt: Optional[int] = 1
    hang_s: float = 30.0

    def fire(self, event: ChaosEvent) -> None:
        if event.heartbeat is not None:
            event.heartbeat.stop()
        time.sleep(self.hang_s)


# ---------------------------------------------------------------------------
# result-file write failures (fired inside write_shard_payload)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlowWrite(ChaosModel):
    """Stall the shard result publish for ``delay_s`` before the rename."""

    site: ClassVar[str] = "shard.write"

    attempt: Optional[int] = 1
    delay_s: float = 1.0

    def fire(self, event: ChaosEvent) -> None:
        time.sleep(self.delay_s)


@dataclass(frozen=True)
class TornWrite(ChaosModel):
    """Kill the worker mid-write: truncate the temp file, then die.

    The atomic-rename discipline must turn this into *no result file at
    all* — the parent sees a dead worker without a published result and
    reschedules; it must never read a partial payload.
    """

    site: ClassVar[str] = "shard.write"

    attempt: Optional[int] = 1
    exit_code: int = 87

    def fire(self, event: ChaosEvent) -> None:
        if event.path and os.path.exists(event.path):
            size = os.path.getsize(event.path)
            with open(event.path, "r+b") as fh:
                fh.truncate(size // 2)
        os._exit(self.exit_code)


@dataclass(frozen=True)
class CorruptShardPayload(ChaosModel):
    """Flip one byte in the shard result pickle before it is published.

    The corrupted file *is* renamed into place — a complete-looking
    result that fails digest verification.  The parent must treat it as
    not-done and retry, never credit it.
    """

    site: ClassVar[str] = "shard.write"

    attempt: Optional[int] = 1

    def fire(self, event: ChaosEvent) -> None:
        with open(event.path, "r+b") as fh:
            blob = bytearray(fh.read())
            blob[len(blob) // 2] ^= 0x01
            fh.seek(0)
            fh.write(bytes(blob))
            fh.truncate()


# ---------------------------------------------------------------------------
# filesystem failures (manifest and store write paths)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Enospc(ChaosModel):
    """Raise ENOSPC at a write site (``times`` bounds make it transient).

    ``site`` is an instance field here: the same model class covers the
    store's durable writes (``"store.write"``), the batch manifest
    (``"manifest.write"``) and shard result publishes
    (``"shard.write"``).
    """

    site: str = "store.write"          # type: ignore[misc]

    def fire(self, event: ChaosEvent) -> None:
        raise OSError(errno.ENOSPC,
                      f"chaos: no space left on device (site {self.site!r})")


@dataclass(frozen=True)
class KillMidRename(ChaosModel):
    """Simulated crash between the store's fsync and its atomic rename.

    The durable-write promise under test: the entry directory must hold
    either the previous state or nothing — never a readable-but-wrong
    file — and the next run must heal the missing entry bit-identically.
    """

    site: str = "store.rename"         # type: ignore[misc]

    def fire(self, event: ChaosEvent) -> None:
        raise InjectedCrash(
            f"chaos: writer killed before renaming {event.path!r}")


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, declarative failure schedule for one campaign run.

    Attributes:
        models: the chaos models to arm, fired in declaration order
            when their triggers match.
        seed: resolves every ``probability < 1`` decision through a
            stable hash — the same seed replays the same failure
            schedule on every run.
    """

    models: Tuple[ChaosModel, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", tuple(self.models))
        for model in self.models:
            for attr in ("site", "matches", "fire", "digest_token"):
                if not hasattr(model, attr):
                    raise ConfigurationError(
                        f"{model!r} is not a chaos model (missing {attr!r}); "
                        "use the models in repro.chaos or implement the "
                        "same protocol")

    def digest_token(self) -> str:
        tokens = ", ".join(m.digest_token() for m in self.models)
        return f"ChaosPlan(seed={self.seed}, models=({tokens}))"
