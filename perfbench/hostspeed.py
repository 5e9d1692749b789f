"""Host-speed probes: rescale measured times to a fixed reference speed.

The 2-CPU host this benchmark was built on shares its cores with other
tenants.  Each vCPU slows by up to 1.7x for seconds at a time, and the
share of slow time drifts over minutes, so raw host times of the same
code spread by 15-40 % between runs.  A probe is a fixed computation that
does not touch the program: timing it just before and just after a
request measures how fast the host was meanwhile, and the request's time
is rescaled by ``reference / probe``.  A program that gets slower still
reads slower by the same factor; the host's drift cancels.

Interpreted scalar code and small-array NumPy code slow down by
different amounts, so there are two probes, and each workload uses the
one its hot path resembles (``"python"`` for the fused scalar kernel,
``"numpy"`` for the lockstep fleet and the store's JSON, hashing and
array rebuilding).
"""

from __future__ import annotations

import os
import time

import numpy as np

#: Probe times on the reference host when no other tenant interferes
#: (Intel Xeon, 2 vCPUs); scaled times are "as if at this speed".
REFERENCE_S = {"python": 0.0061, "numpy": 0.0053}


def _probe_python() -> None:
    x = 0.1
    for _ in range(100_000):
        x = (x * 1.0000001 + 0.5) % 3.0


def _probe_numpy() -> None:
    a = np.arange(32.0)
    for _ in range(3000):
        a = np.sin(a) * 0.5 + a[::-1]


_PROBES = {"python": _probe_python, "numpy": _probe_numpy}


def probe(kind: str) -> float:
    """Seconds the ``kind`` probe takes right now."""
    t0 = time.perf_counter()
    _PROBES[kind]()
    return time.perf_counter() - t0


def probe_slowest_cpu(kind: str) -> float:
    """The ``kind`` probe on each allowed CPU in turn; the slowest time."""
    allowed = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(probe(kind))
    finally:
        os.sched_setaffinity(0, allowed)
    return max(times)


class Bracket:
    """Probe before and after a block; ``scale`` rescales its times.

    Usage::

        with Bracket("numpy") as bracket:
            ...timed work...
        scaled_seconds = raw_seconds * bracket.scale

    ``all_cpus`` probes every CPU the process may run on and keeps the
    slowest, for work that waits on processes spread over all of them.
    """

    def __init__(self, kind: str, all_cpus: bool = False):
        self.kind = kind
        self._probe = probe_slowest_cpu if all_cpus else probe
        self.scale = float("nan")
        self._before = 0.0

    def __enter__(self) -> "Bracket":
        self._before = self._probe(self.kind)
        return self

    def __exit__(self, *exc) -> None:
        after = self._probe(self.kind)
        self.scale = REFERENCE_S[self.kind] / (0.5 * (self._before + after))
