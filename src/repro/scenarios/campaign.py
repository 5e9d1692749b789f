"""Campaign runner: one orchestrator for every co-simulation run loop.

A :class:`Campaign` takes lane *programs* — each a scenario or a
sequence of scenarios to run back-to-back on one platform — and executes
them on any registered engine.  Every round is one engine fleet call
(:meth:`~repro.scenarios.engines.EngineSpec.run_fleet`) that runs each
active lane on its own, for its own number of samples.

The campaign advances in *chunks*: every round, each lane steps to its
own next boundary — a stop-condition check point or a scenario end — so
early-stop conditions ("start-up completed") work in a fleet exactly
like the platform's chunked ``start()`` loop always has, and lanes whose
programs finish early simply drop out of the fleet.  A lane is never
chopped at a *foreign* lane's boundary: shorter lanes retire at their
own boundary while the longer ones run on, and every lane counts
samples on its own platform's sample grid, so fleets may mix sample
rates.  A lane's chunk sequence is therefore a pure function of its own
program.  Each chunk reads the scenario's own environment at the lane's
absolute sample index (the engines' ``first_sample``), the times one
continuous run reads, and consecutive engine runs compose exactly into
one continuous simulation, so the chunking is invisible for every
stimulus: a scenario program replayed through any engine, in any fleet
packing, on any executor's shard partition, from the same platform
state produces bit-identical traces and metrics, equal to one
continuous run.

Two recording caveats, neither of which reaches platform state or the
metrics read from it:

* each engine call restarts the lane's trace-decimation grid at its own
  boundaries (stop checks, fault edges and scenario ends), so a
  boundary that is not a multiple of ``record_decimation`` samples
  leaves a few closer-spaced points at each join.  The standard library
  scenarios use durations that land on the grid; keep scenario
  durations and stop-check intervals multiples of ``record_decimation /
  sample_rate_hz`` when trace uniformity matters (PSD-based
  extractors);
* the platform clock advances by ``n * dt`` per engine call, so the
  ``time_s`` trace of a chunked lane may differ from one continuous
  run's in the last bit.
"""

from __future__ import annotations

import dataclasses
import itertools
import numbers
from typing import List, Optional, Sequence, Union

from ..chaos.runtime import active as chaos_active
from ..common.exceptions import ConfigurationError, SimulationError
from ..platform.result import concatenate_results
from ..sensors.environment import ConstantProfile
from ..sensors.resonator import PROPAGATOR_MEMO_SIZE
from .engines import ENGINE_COMPILED, get_engine
from .scenario import Scenario, ScenarioOutcome

#: Former name of the multi-lane campaign default, kept only because the
#: benchmark's provenance record (``perfbench/run.py``) reads it.  It is
#: not a registry entry: campaigns default to the base platform's engine.
ENGINE_BATCHED = ENGINE_COMPILED


@dataclasses.dataclass
class LaneOutcome:
    """Everything one campaign lane produced.

    Attributes:
        platform: the platform the lane ran on (a clone of the base
            platform unless the caller supplied its own lanes) in its
            final state — inspect it or adopt its state for follow-on
            runs.
        outcomes: one :class:`ScenarioOutcome` per program scenario, in
            execution order.
    """

    platform: object
    outcomes: List[ScenarioOutcome]

    def outcome(self, name: str) -> ScenarioOutcome:
        """The lane's outcome for the scenario called ``name``."""
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise ConfigurationError(
            f"lane has no outcome for scenario {name!r}")

    def to_dict(self, block: Optional[bytearray] = None) -> dict:
        """JSON-compatible dict of the lane's outcomes.

        The platform is not serialised (it is a full mixed-signal model;
        use pickle when the final platform state must travel too), so
        :meth:`from_dict` restores ``platform=None``.  ``block`` collects
        the traces as raw sections (:meth:`GyroSimulationResult.to_dict`).
        """
        return {"outcomes": [o.to_dict(block) for o in self.outcomes]}

    @classmethod
    def from_dict(cls, data: dict, block=None) -> "LaneOutcome":
        """Rebuild a lane outcome (with ``platform=None``)."""
        return cls(platform=None,
                   outcomes=[ScenarioOutcome.from_dict(o, block)
                             for o in data["outcomes"]])


class CampaignResult:
    """Per-lane outcomes of a campaign run.

    A sharded campaign whose retries were exhausted returns a *partial*
    result: quarantined shards are reported in ``failed_shards`` and
    their lanes are ``None`` in ``lanes``.  Check :attr:`complete` (or
    ``failed_shards``) before treating the result as exhaustive; resume
    with the same ``manifest_dir`` to fill in the missing lanes.
    """

    def __init__(self, lanes: List[Optional[LaneOutcome]],
                 failed_shards: Optional[List[dict]] = None):
        self.lanes = lanes
        self.failed_shards = list(failed_shards or [])

    def __len__(self) -> int:
        return len(self.lanes)

    def __iter__(self):
        return iter(self.lanes)

    @property
    def complete(self) -> bool:
        """True when every lane produced an outcome."""
        return not self.failed_shards and all(
            lane is not None for lane in self.lanes)

    def failed_lane_indices(self) -> List[int]:
        """Indices of lanes lost to quarantined shards."""
        return [i for i, lane in enumerate(self.lanes) if lane is None]

    def outcomes(self) -> List[ScenarioOutcome]:
        """All scenario outcomes, lane-major (missing lanes skipped)."""
        return [outcome for lane in self.lanes if lane is not None
                for outcome in lane.outcomes]

    def outcome(self, name: str) -> ScenarioOutcome:
        """The first outcome for the scenario called ``name``."""
        for outcome in self.outcomes():
            if outcome.name == name:
                return outcome
        raise ConfigurationError(
            f"campaign has no outcome for scenario {name!r}")

    def metric(self, name: str) -> List[float]:
        """Collect one metric across all outcomes that define it."""
        values = [outcome.metrics[name] for outcome in self.outcomes()
                  if name in outcome.metrics]
        if not values:
            raise ConfigurationError(
                f"no scenario extracted a metric called {name!r}")
        return values

    def to_dict(self) -> dict:
        """JSON-compatible dict; see :meth:`LaneOutcome.to_dict`."""
        out = {"lanes": [None if lane is None else lane.to_dict()
                         for lane in self.lanes]}
        if self.failed_shards:
            out["failed_shards"] = list(self.failed_shards)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignResult":
        """Rebuild a campaign result (lane platforms become ``None``)."""
        return cls([None if lane is None else LaneOutcome.from_dict(lane)
                    for lane in data["lanes"]],
                   failed_shards=data.get("failed_shards"))


class _LaneState:
    """Execution cursor of one lane through its scenario program."""

    def __init__(self, platform, program: Sequence[Scenario]):
        self.platform = platform
        self.program = list(program)
        self.fs = platform.config.sample_rate_hz
        self.index = -1
        self.outcomes: List[ScenarioOutcome] = []
        self._segments = []
        self._sample = 0          # samples into the current scenario
        self._n_total = 0
        self._n_check = 0
        self._fault_spans: List = []       # (start, stop) sample windows
        self._fault_edges: List[int] = []  # interior activation edges
        self._armed: dict = {}             # fault index -> saved state
        self.done = not self.program

    @property
    def scenario(self) -> Scenario:
        return self.program[self.index]

    def begin_next_scenario(self) -> None:
        self.index += 1
        if self.index >= len(self.program):
            self.done = True
            return
        scenario = self.scenario
        if scenario.reset:
            self.platform.reset()
        self._segments = []
        self._sample = 0
        self._n_total = max(1, int(round(scenario.duration_s * self.fs)))
        if scenario.stop is not None:
            self._n_check = max(1, int(round(scenario.stop_check_s * self.fs)))
        else:
            self._n_check = self._n_total
        # quantise the fault windows onto the lane's own sample grid:
        # fault edges become lane boundaries, so arming/disarming always
        # happens between engine calls — on every engine identically
        self._fault_spans = []
        self._fault_edges = []
        self._armed = {}
        edges = set()
        for fault in scenario.faults:
            start = min(self._n_total, max(0, int(round(fault.t_start * self.fs))))
            stop = (self._n_total if fault.t_stop is None
                    else min(self._n_total, int(round(fault.t_stop * self.fs))))
            self._fault_spans.append((start, stop))
            for t_edge in fault.edges():
                edge = int(round(t_edge * self.fs))
                if 0 < edge < self._n_total:
                    edges.add(edge)
        self._fault_edges = sorted(edges)
        self._sync_faults()

    def samples_to_boundary(self) -> int:
        """Samples until this lane's next stop check, fault edge or end."""
        next_check = (self._sample // self._n_check + 1) * self._n_check
        boundary = min(next_check, self._n_total)
        for edge in self._fault_edges:
            if edge > self._sample:
                boundary = min(boundary, edge)
                break
        return boundary - self._sample

    def _sync_faults(self) -> None:
        """Arm, update or restore each fault for the current position."""
        for i, fault in enumerate(self.scenario.faults):
            start, stop = self._fault_spans[i]
            active = start <= self._sample < stop
            if active:
                if i not in self._armed:
                    self._armed[i] = fault.inject(self.platform)
                fault.update(self.platform, self._sample / self.fs,
                             self._armed[i])
            elif i in self._armed:
                fault.restore(self.platform, self._armed.pop(i))

    def _restore_faults(self) -> None:
        for i in list(self._armed):
            self.scenario.faults[i].restore(self.platform,
                                            self._armed.pop(i))

    def advance(self, samples: int, result) -> None:
        """Account a finished chunk and roll over completed scenarios."""
        self.platform._observe_safety(result, samples)
        self._segments.append(result)
        self._sample += samples
        scenario = self.scenario
        at_check = self._sample % self._n_check == 0
        at_end = self._sample >= self._n_total
        stopped = (scenario.stop is not None and (at_check or at_end)
                   and scenario.stop(self.platform))
        if not stopped and not at_end:
            self._sync_faults()
            return
        self._restore_faults()
        if not stopped and scenario.require_stop:
            raise SimulationError(
                scenario.timeout_message
                or (f"scenario {scenario.name!r} timed out after "
                    f"{scenario.duration_s} s without meeting its stop "
                    "condition"))
        self._finish(stopped_early=stopped and not at_end)
        self.begin_next_scenario()

    def _finish(self, stopped_early: bool) -> None:
        scenario = self.scenario
        # the last segment carries the safe-mode snapshot, so resilience
        # metrics read it off the result
        result = concatenate_results(self._segments)
        metrics = {name: fn(self.platform, result)
                   for name, fn in scenario.extractors.items()}
        self.outcomes.append(ScenarioOutcome(
            scenario=scenario, result=result, metrics=metrics,
            stopped_early=stopped_early,
            elapsed_s=self._sample / self.fs))


Program = Union[Scenario, Sequence[Scenario]]


class Campaign:
    """Packs scenario programs into fleet lanes.

    The one way to run several lanes — stimuli, devices or design
    points — through the co-simulation: in-process or across worker
    processes, branched from one platform or on caller-owned platforms,
    optionally backed by a result store.

    Args:
        programs: one entry per lane — a single :class:`Scenario` or a
            sequence of scenarios run back-to-back on that lane.
        name: label for error messages and reports.
    """

    def __init__(self, programs: Sequence[Program],
                 name: str = "campaign"):
        if not programs:
            raise ConfigurationError("campaign needs at least one scenario")
        self.programs: List[List[Scenario]] = []
        for program in programs:
            lane = [program] if isinstance(program, Scenario) else list(program)
            if not lane:
                raise ConfigurationError("empty scenario program")
            if not all(isinstance(s, Scenario) for s in lane):
                raise ConfigurationError(
                    "programs must contain Scenario objects")
            self.programs.append(lane)
        self.name = name

    def __len__(self) -> int:
        return len(self.programs)

    # -- execution ----------------------------------------------------------

    def run(self, platform=None, *, platforms=None,
            engine: Optional[str] = None, executor: Optional[str] = None,
            workers: Optional[int] = None,
            manifest_dir=None, retry=None,
            shard_timeout_s: Optional[float] = None,
            shard_size: Optional[int] = None,
            chaos=None,
            heartbeat_interval_s: float = 0.5,
            heartbeat_grace: float = 6.0,
            speculation_factor: Optional[float] = 4.0,
            store=None) -> CampaignResult:
        """Execute every lane program and return the per-lane outcomes.

        Exactly one base must be given:

        * ``platform`` — each lane is unpickled from one shared pickle
          of the platform (state, noise positions and calibration words
          included), so campaigns branch from the platform without
          advancing it; the platform must therefore be picklable.
        * ``platforms`` — one pre-built platform per lane, advanced in
          place, so lane state carries over from one campaign to the
          next; ``platforms=[p]`` runs a single lane on ``p`` itself,
          the way ``start()`` and the settled-output measurements work.
          For a population of devices, build one platform per lane
          (``GyroPlatformConfig.with_part_variation`` draws Monte Carlo
          parts).  (The ``"sharded"`` executor advances worker-side
          copies instead; read final state from the lane outcomes.)

        Args:
            engine: the engine for this run
                (:func:`~repro.scenarios.engines.engine_names`);
                defaults to the (first) base platform's configured
                engine.
            executor: execution backend
                (:func:`~repro.scenarios.executor.executor_names`) —
                ``"local"`` runs in-process, ``"sharded"`` partitions
                the lanes across worker processes with a resumable
                batch manifest.  Defaults to ``"sharded"`` when
                ``workers`` is given, else ``"local"``.
            workers: worker-process count for the sharded executor.
            manifest_dir: sharded only — directory for the batch
                manifest and shard results; reuse a previous run's
                directory to resume it.  Defaults to a fresh temp dir.
            retry: sharded only — a
                :class:`~repro.common.retry.RetryPolicy` governing
                shard re-runs: attempts per shard, exponential backoff
                between them (each sleep capped by the remaining
                deadline budget and skipped for workers known dead via
                missed heartbeats) and an optional wall-clock
                ``deadline_s`` for the whole run.  A shard that
                exhausts its budget is *quarantined*: the campaign
                returns a partial :class:`CampaignResult` whose
                ``failed_shards`` report names it with its full attempt
                history (lanes of quarantined shards are ``None``)
                instead of raising; resume with the same
                ``manifest_dir`` to fill them in.  Defaults to
                ``RetryPolicy()`` (three attempts, no backoff).
            shard_timeout_s: sharded only — wall-clock budget per shard
                attempt.
            shard_size: sharded only — lanes per shard (default spreads
                the lanes evenly over ``workers``).
            chaos: a :class:`repro.chaos.ChaosPlan` of seeded
                infrastructure failures (worker crashes, errors and
                hangs, heartbeat loss, torn/corrupted/slow result
                writes, ENOSPC, kill-mid-rename) injected at the
                executor/manifest/store boundaries for this run —
                chaos-testing the execution substrate, the way
                :mod:`repro.faults` tests the platform.
            heartbeat_interval_s: sharded only — how often each shard
                worker beats its liveness file.
            heartbeat_grace: sharded only — heartbeat silence beyond
                ``heartbeat_grace × heartbeat_interval_s`` declares the
                worker dead and reschedules its shard immediately
                (no backoff, no waiting out ``shard_timeout_s``).
            speculation_factor: sharded only — a shard attempt running
                longer than this multiple of the median completed-shard
                duration gets a speculative backup attempt; whichever
                attempt publishes a digest-verified result first is
                credited.  ``None`` disables speculation.
            store: a :class:`repro.store.ResultStore` — lanes whose
                results are already stored (same starting state, engine
                and scenario program) are served from disk with zero
                simulation; only missing, corrupted or quarantined
                lanes run (on the requested executor) and their fresh
                outcomes are durably stored before the merged result
                returns.  Served lanes carry ``platform=None``, and
                a ``platforms=`` lane that is served is not advanced.
        """
        from .executor import ExecutorOptions, LaneSource, get_executor
        options = ExecutorOptions(workers=workers, manifest_dir=manifest_dir,
                                  retry=retry,
                                  shard_timeout_s=shard_timeout_s,
                                  shard_size=shard_size,
                                  chaos=chaos,
                                  heartbeat_interval_s=heartbeat_interval_s,
                                  heartbeat_grace=heartbeat_grace,
                                  speculation_factor=speculation_factor)
        source = LaneSource.resolve(platform, platforms, len(self.programs))
        # read off the live (first) base before any sharding, so a
        # shard runs the engine the full campaign picked
        engine = engine or (platform or source.base[0]).config.engine
        get_engine(engine)
        if executor is None:
            executor = "sharded" if workers else "local"
        spec = get_executor(executor)
        with chaos_active(chaos):
            if store is not None:
                from ..store.serve import run_with_store
                return run_with_store(self, source, engine, executor,
                                      options, store)
            return spec.runner(self, source, engine, options)


def _execute_lanes(programs: Sequence[Sequence[Scenario]], lanes: Sequence,
                   engine: str, threads: int = 1) -> List[LaneOutcome]:
    """Run lane programs on pre-built platforms with one engine.

    This is the campaign core loop, shared by every executor: the
    ``"local"`` executor calls it with all lanes in-process and the
    ``"sharded"`` executor calls it inside each worker with that shard's
    slice of the lanes.  ``threads`` caps the threads a round may run
    its lanes on (:meth:`~repro.scenarios.engines.EngineSpec.run_fleet`):
    the local executor passes the CPU count, while a shard worker, which
    has a CPU of its own, runs serially.

    Chunking policy: every round, each lane steps
    to its *own* next boundary — its next stop-condition check or
    scenario end, never a foreign lane's, counted on the lane's own
    sample grid — and every round is one
    :meth:`~repro.scenarios.engines.EngineSpec.run_fleet` call over the
    active lanes.  A lane's step sequence is therefore a pure function
    of its own program and its own stop outcomes.  That is what makes
    the traces invariant to packing: sequential replay, any fleet
    grouping and any shard partition all advance each lane through
    identical engine-call boundaries, hence bit-identical results.
    """
    spec = get_engine(engine)
    states = [_LaneState(p, program) for p, program in zip(lanes, programs)]
    for state in states:
        state.begin_next_scenario()
    active = [s for s in states if not s.done]
    while active:
        steps = [s.samples_to_boundary() for s in active]
        results = spec.run_fleet(
            [state.platform for state in active],
            [state.scenario.environment for state in active],
            [step / state.fs for state, step in zip(active, steps)],
            [state.scenario.record_waveforms for state in active],
            threads, [state._sample for state in active])
        for state, result, step in zip(active, results, steps):
            state.advance(step, result)
        active = [s for s in active if not s.done]
    return [LaneOutcome(s.platform, s.outcomes) for s in states]


def _prefetch_propagators(programs: Sequence[Sequence[Scenario]],
                          lanes: Sequence) -> None:
    """Memoise the propagators the lanes' constant temperatures retune to.

    ``lanes`` holds each lane's starting platform (lanes may share one).
    For each :class:`~repro.sensors.environment.ConstantProfile`
    temperature of a real level in a lane's program, this calls
    :meth:`~repro.sensors.gyro.VibratingRingGyro.prefetch_propagators`
    on the lane's sensor, which it only reads.  The sharded executor
    calls this before it forks its workers, which inherit the memo.  At
    most ``PROPAGATOR_MEMO_SIZE // 2`` (platform, level) pairs are
    fetched, two propagators each: the LRU memo would evict any more.
    """
    requests = {}
    for program, lane in zip(programs, lanes):
        for scenario in program:
            profile = scenario.environment.temperature_c
            if (isinstance(profile, ConstantProfile)
                    and isinstance(profile.level, numbers.Real)):
                requests.setdefault((id(lane), float(profile.level)), lane)
    for (_, level), lane in itertools.islice(requests.items(),
                                             PROPAGATOR_MEMO_SIZE // 2):
        lane.sensor.prefetch_propagators(level)
