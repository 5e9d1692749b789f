"""Declarative co-simulation scenarios.

A :class:`Scenario` is a replayable description of one run: the applied
environment, how long to simulate, whether to power-cycle first, an
optional early-stop condition (checked on a fixed grid, the way the
chunked start-up loop has always worked) and named metric extractors
that turn the recorded traces and final platform state into numbers.

Scenarios carry no engine choice and no platform reference — the same
object can be replayed on the reference loop, the compiled kernel or a
lane of any campaign fleet, and two replays from the same platform state
are bit-identical.  The :class:`~repro.scenarios.campaign.Campaign` runner
executes them.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..common.exceptions import ConfigurationError
from ..common.timebase import check_duration
from ..faults.models import validate_fault
from ..platform.result import GyroSimulationResult
from ..sensors.environment import Environment


def _callable_token(fn: Callable) -> str:
    """A stable textual identity for a stop condition or extractor.

    Dataclass callables (the scenario library's extractors) render their
    full ``repr`` — parameters included — so two extractors that compute
    different things digest differently.  Plain functions render as
    ``module.qualname``.  Lambdas and closures degrade to their
    qualname (``module.<locals>.<lambda>``): the digest is an integrity
    aid for the shard manifest, not a cryptographic identity, and such
    scenarios cannot be shipped cross-process anyway.
    """
    if dataclasses.is_dataclass(fn) and not isinstance(fn, type):
        return repr(fn)
    module = getattr(fn, "__module__", "?")
    qualname = getattr(fn, "__qualname__", repr(fn))
    return f"{module}.{qualname}"

#: Signature of a stop condition: inspects the platform state after a
#: chunk and returns True to end the scenario early.
StopCondition = Callable[[object], bool]

#: Signature of a metric extractor: ``fn(platform, result) -> value``
#: evaluated once when the scenario completes, with the platform in its
#: final state and the concatenated trace record.
MetricExtractor = Callable[[object, GyroSimulationResult], float]


@dataclass
class Scenario:
    """One declarative co-simulation run.

    Attributes:
        name: label used in results, error messages and reports.
        environment: applied rate/temperature stimulus (time relative to
            the scenario start).
        duration_s: how long to simulate, in seconds — an upper bound
            when a stop condition is set.  Any finite real > 0 (NumPy
            scalars included); stored as the equal Python float, like
            ``stop_check_s``, so digests and store keys do not depend
            on the number type.
        reset: power-cycle the platform before running.
        record_waveforms: record pick-off / drive-word waveforms.
        stop: optional early-stop condition, evaluated on the
            ``stop_check_s`` grid; the scenario ends at the first grid
            point where it returns True.
        stop_check_s: evaluation period of the stop condition (defaults
            to ``duration_s``, i.e. a single check at the end).
        require_stop: raise :class:`SimulationError` if the stop
            condition never fired within ``duration_s``.
        timeout_message: message for that error (a default naming the
            scenario is used when omitted).
        extractors: named metric extractors run on completion.
        faults: fault models (:mod:`repro.faults`) armed and disarmed by
            the campaign runner at chunk boundaries; each fault's
            activation edges join the lane's own boundary grid, so a
            faulted scenario replays bit-identically on every engine
            and executor.  All faults are restored when the scenario
            completes.
    """

    name: str
    environment: Environment
    duration_s: float
    reset: bool = False
    record_waveforms: bool = False
    stop: Optional[StopCondition] = None
    stop_check_s: Optional[float] = None
    require_stop: bool = False
    timeout_message: Optional[str] = None
    extractors: Dict[str, MetricExtractor] = field(default_factory=dict)
    faults: Tuple = ()

    def __post_init__(self) -> None:
        self.duration_s = check_duration(self.duration_s,
                                         "scenario duration")
        self.faults = tuple(self.faults)
        for fault in self.faults:
            validate_fault(fault)
        if self.stop is None:
            if self.require_stop:
                raise ConfigurationError(
                    "require_stop needs a stop condition")
            if self.stop_check_s is not None:
                raise ConfigurationError(
                    "stop_check_s needs a stop condition")
        elif self.stop_check_s is None:
            self.stop_check_s = self.duration_s
        else:
            self.stop_check_s = check_duration(self.stop_check_s,
                                               "stop_check_s")
            if self.stop_check_s > self.duration_s:
                raise ConfigurationError(
                    "stop_check_s must be in (0, duration_s]")

    def digest(self) -> str:
        """Content digest of this scenario for shard-manifest integrity.

        Hashes the declarative fields — environment (dataclass reprs are
        deterministic), timing, reset/record flags, stop configuration
        and the extractor identities — so a resumed sharded campaign can
        verify that an on-disk manifest was produced by the same lane
        programs before reusing completed shards.
        """
        parts = [
            self.name,
            repr(self.environment),
            repr(self.duration_s),
            repr(self.reset),
            repr(self.record_waveforms),
            "-" if self.stop is None else _callable_token(self.stop),
            repr(self.stop_check_s),
            repr(self.require_stop),
        ]
        for key in sorted(self.extractors):
            parts.append(f"{key}={_callable_token(self.extractors[key])}")
        # sorted fault tokens: the digest is insensitive to declaration
        # order (faults commute — each is armed on its own window)
        for token in sorted(fault.digest_token() for fault in self.faults):
            parts.append(f"fault:{token}")
        payload = "\x1f".join(parts).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class ScenarioOutcome:
    """A completed scenario: its traces and extracted metrics.

    Attributes:
        scenario: the scenario that ran.
        result: concatenated trace record of the whole scenario.
        metrics: extractor outputs keyed by extractor name.
        stopped_early: whether the stop condition ended the run before
            ``duration_s`` elapsed.
        elapsed_s: simulated time actually spent in the scenario.
        scenario_digest: content digest of the *original* scenario; set
            by :meth:`from_dict` on deserialised outcomes so the digest
            survives the round-trip even though the placeholder scenario
            cannot recompute it (its callables are gone).
    """

    scenario: Scenario
    result: GyroSimulationResult
    metrics: Dict[str, float]
    stopped_early: bool
    elapsed_s: float
    scenario_digest: Optional[str] = None

    @property
    def name(self) -> str:
        return self.scenario.name

    def digest(self) -> str:
        """The digest of the scenario that produced this outcome.

        A live outcome digests its scenario; a deserialised outcome
        returns the digest recorded at serialisation time, so
        ``to_dict`` → ``from_dict`` → ``to_dict`` is lossless.
        """
        return self.scenario_digest or self.scenario.digest()

    def to_dict(self, block: Optional[bytearray] = None) -> dict:
        """JSON-compatible dict of the outcome.

        The scenario itself is summarised (name, duration, digest), not
        serialised: stop conditions and extractors are arbitrary
        callables.  :meth:`from_dict` therefore rebuilds a placeholder
        scenario carrying the name/duration/digest only — metrics are
        already evaluated, so nothing downstream needs the callables.
        Use pickle when full scenario fidelity is required.  ``block``
        collects the traces as raw sections
        (:meth:`GyroSimulationResult.to_dict`).
        """
        return {
            "scenario": {"name": self.scenario.name,
                         "duration_s": self.scenario.duration_s,
                         "digest": self.digest()},
            "result": self.result.to_dict(block),
            "metrics": dict(self.metrics),
            "stopped_early": self.stopped_early,
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_dict(cls, data: dict, block=None) -> "ScenarioOutcome":
        """Rebuild an outcome from :meth:`to_dict` output (and its block)."""
        from ..sensors.environment import Environment
        meta = data["scenario"]
        scenario = Scenario(name=meta["name"], environment=Environment.still(),
                            duration_s=meta["duration_s"])
        return cls(scenario=scenario,
                   result=GyroSimulationResult.from_dict(data["result"],
                                                         block),
                   metrics=dict(data["metrics"]),
                   stopped_early=bool(data["stopped_early"]),
                   elapsed_s=float(data["elapsed_s"]),
                   scenario_digest=meta.get("digest"))
