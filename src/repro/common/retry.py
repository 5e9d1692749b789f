"""Shared retry semantics: attempts, exponential backoff, deadlines.

One :class:`RetryPolicy` describes *how often and how patiently* an
operation may be retried — the campaign executor uses it to govern shard
re-launches and the result store uses it to ride out transient I/O
failures (ENOSPC clearing, NFS hiccups) on its durable-write path.
Keeping it in ``common`` means every layer speaks the same retry
vocabulary and the batch manifest can record one policy dict instead of
a drift-prone pile of ad-hoc scalars.

The policy is a frozen (picklable) dataclass like everything else that
travels to worker processes.  Delays grow exponentially from
``backoff_s`` by ``backoff_factor`` per failed attempt, saturate at
``max_backoff_s``, and — when a ``deadline_s`` budget is set — are
always capped by the time remaining in the budget, so a retry loop can
never sleep past its own deadline.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Optional, Tuple, Type

from .exceptions import ConfigurationError


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How an operation is retried: attempts, backoff and deadline budget.

    Attributes:
        max_attempts: total launches allowed (first try included); 1
            means no retries.
        backoff_s: delay before the first retry; 0 retries immediately.
        backoff_factor: multiplier applied to the delay per further
            retry (exponential backoff).
        max_backoff_s: saturation cap on any single delay.
        deadline_s: optional wall-clock budget over the whole retry
            loop; once spent, no further retries launch and any backoff
            sleep is capped by the time remaining.
    """

    max_attempts: int = 3
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    max_backoff_s: float = 30.0
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.backoff_s < 0:
            raise ConfigurationError("backoff_s must be >= 0")
        if self.backoff_factor < 1:
            raise ConfigurationError("backoff_factor must be >= 1")
        if self.max_backoff_s < 0:
            raise ConfigurationError("max_backoff_s must be >= 0")
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ConfigurationError("deadline_s must be >= 0")

    # -- delays -------------------------------------------------------------

    def delay_for(self, attempt: int) -> float:
        """Backoff delay after failed attempt number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ConfigurationError("attempt numbers are 1-based")
        if self.backoff_s == 0:
            return 0.0
        return min(self.backoff_s * self.backoff_factor ** (attempt - 1),
                   self.max_backoff_s)

    def remaining(self, started_monotonic: float,
                  now: Optional[float] = None) -> Optional[float]:
        """Budget left (seconds, floored at 0); None without a deadline."""
        if self.deadline_s is None:
            return None
        if now is None:
            now = time.monotonic()
        return max(0.0, self.deadline_s - (now - started_monotonic))

    # -- the generic retry loop ---------------------------------------------

    def call(self, fn: Callable, *,
             retryable: Tuple[Type[BaseException], ...] = (OSError,),
             sleep: Callable[[float], None] = time.sleep,
             monotonic: Callable[[], float] = time.monotonic):
        """Run ``fn()`` under this policy, retrying ``retryable`` failures.

        The last failure is re-raised when the attempts (or the deadline
        budget) are exhausted; every backoff sleep is capped by the
        remaining budget.  Exceptions outside ``retryable`` propagate
        immediately — a crash simulation or a programming error is not a
        transient fault.
        """
        start = monotonic()
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except retryable:
                if attempt >= self.max_attempts:
                    raise
                delay = self.delay_for(attempt)
                remaining = self.remaining(start, monotonic())
                if remaining is not None:
                    if remaining <= 0:
                        raise
                    delay = min(delay, remaining)
                if delay > 0:
                    sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- serialisation (for the batch manifest) -----------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        return cls(max_attempts=int(data["max_attempts"]),
                   backoff_s=float(data["backoff_s"]),
                   backoff_factor=float(data["backoff_factor"]),
                   max_backoff_s=float(data["max_backoff_s"]),
                   deadline_s=(None if data.get("deadline_s") is None
                               else float(data["deadline_s"])))
