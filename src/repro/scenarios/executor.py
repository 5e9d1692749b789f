"""Campaign execution backends: the executor registry and its members.

Engines (``repro.scenarios.engines``) decide *how one platform is
stepped*; executors decide *where the campaign's lanes run*:

* ``"local"`` — every lane in the calling process, the way campaigns
  have always run.
* ``"sharded"`` — the lane programs are partitioned into contiguous
  shards and farmed out to worker processes, one
  ``multiprocessing.Process`` per shard attempt.  What travels to a
  worker is pickled *descriptions* — scenario programs plus the lane
  source (a base platform or per-lane platforms) — never live
  simulator internals, and a platform survives a pickle round-trip
  bit-identically, so every shard replays exactly the simulation the
  local executor would have run and the assembled
  :class:`~repro.scenarios.campaign.CampaignResult` is bit-identical to
  the in-process one (equivalence-locked by test, the same discipline
  the engine registry lives under).

The sharded executor is crash-tolerant and chaos-hardened: a JSON batch
manifest (:mod:`repro.scenarios.manifest`) is written before any worker
starts, workers publish their results via atomic renames, and an
event-driven scheduler re-runs only the shards whose result files are
missing or fail digest verification.  The hardening mechanics, each
chaos-tested by :mod:`repro.chaos`:

* **Heartbeats** — every shard worker beats a liveness file from a
  background thread, so the scheduler tells a *dead* worker (crashed,
  frozen: heartbeat gone stale, reschedule immediately — no backoff,
  no waiting out ``shard_timeout_s``) from a *slow* one (heartbeat
  fresh: keep waiting up to the deadline).
* **Straggler speculation** — a shard running longer than
  ``speculation_factor`` × the median completed-shard duration gets a
  speculative backup attempt; whichever attempt's result file verifies
  first is credited (attempt files are *promoted* to the canonical
  result name only after digest verification, so a backup can never
  clobber a verified result, and a terminated straggler can never
  corrupt one).
* **Retry budgets** — re-launches are governed by a shared
  :class:`~repro.common.retry.RetryPolicy` (max attempts, exponential
  backoff with cap, optional deadline budget); every backoff is capped
  by the remaining deadline and skipped outright for known-dead
  workers, and the full attempt history (failure class + truncated
  traceback included) is recorded in the manifest.

A killed run therefore degrades into a resume: call ``Campaign.run``
again with the same ``manifest_dir`` and only unfinished shards are
simulated (verified canonical *and* stray attempt result files from the
dead run are credited without re-simulation).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import multiprocessing
import numbers
import os
import pickle
import statistics
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..chaos import runtime as _chaos
from ..common.exceptions import ConfigurationError, SimulationError
from ..common.retry import RetryPolicy
from .campaign import Campaign, CampaignResult, LaneOutcome, _execute_lanes
from .manifest import (
    ATTEMPT_CRASH,
    ATTEMPT_ERROR,
    ATTEMPT_HEARTBEAT_LOST,
    ATTEMPT_OK,
    ATTEMPT_RUNNING,
    ATTEMPT_SUPERSEDED,
    ATTEMPT_TIMEOUT,
    ATTEMPT_VERIFY_FAILED,
    SHARD_DONE,
    SHARD_FAILED,
    CampaignManifest,
    ShardRecord,
    write_error_report,
    write_shard_payload,
)

EXECUTOR_LOCAL = "local"
EXECUTOR_SHARDED = "sharded"

#: Completed shards required before their median duration is trusted
#: for straggler speculation.
SPECULATION_MIN_DONE = 2
#: Seconds the sharded scheduler sleeps when a poll made no progress.
POLL_INTERVAL_S = 0.02


def _whole(value, minimum: int) -> bool:
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value >= minimum)


def _finite_above(value, bound: float) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and value > bound)


@dataclasses.dataclass(frozen=True)
class ExecutorOptions:
    """Per-run knobs consumed by the executors (see ``Campaign.run``)."""

    workers: Optional[int] = None
    manifest_dir: Optional[str] = None
    retry: Optional[RetryPolicy] = None
    shard_timeout_s: Optional[float] = None
    shard_size: Optional[int] = None
    chaos: Optional[object] = None
    heartbeat_interval_s: float = 0.5
    heartbeat_grace: float = 6.0
    speculation_factor: Optional[float] = 4.0

    def __post_init__(self) -> None:
        for name in ("workers", "shard_size"):
            value = getattr(self, name)
            if value is not None and not _whole(value, 1):
                raise ConfigurationError(
                    f"{name} must be None or a whole number >= 1, "
                    f"got {value!r}")
        if not (self.shard_timeout_s is None
                or _finite_above(self.shard_timeout_s, 0.0)):
            raise ConfigurationError(
                "shard_timeout_s must be None or finite and > 0, "
                f"got {self.shard_timeout_s!r}")
        if not _finite_above(self.heartbeat_interval_s, 0.0):
            raise ConfigurationError(
                "heartbeat_interval_s must be finite and > 0, "
                f"got {self.heartbeat_interval_s!r}")
        if not _finite_above(self.heartbeat_grace, 1.0):
            raise ConfigurationError(
                "heartbeat_grace must be finite and > 1, "
                f"got {self.heartbeat_grace!r}")
        if not (self.speculation_factor is None
                or _finite_above(self.speculation_factor, 1.0)):
            raise ConfigurationError(
                "speculation_factor must be None or finite and > 1, "
                f"got {self.speculation_factor!r}")


def _snapshot(platform) -> bytes:
    """The pickle a lane starts from (lanes, keys and replays read it)."""
    try:
        return pickle.dumps(platform, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise ConfigurationError(
            "campaign lanes start from one pickle of their platform, so "
            "it must be picklable (lambdas and closures, e.g. in register "
            "write hooks, are not); pass platforms=[platform] to run it "
            f"in place on the local executor, without a store: {exc}"
        ) from exc


def _normalised_digest(blob: bytes) -> str:
    """SHA-256 over a platform pickle's *normalised* bytes.

    Raw pickle bytes depend on object-graph sharing: a platform that was
    itself unpickled can lose (or gain) shared sub-objects — a dtype
    instance referenced by two arrays, say — and re-pickle to different
    bytes than the freshly constructed equivalent.  One load/dump round
    trip normalises the graph (``dumps ∘ loads`` is a fixed point), so
    the digest is stable across process restarts and across
    pickle/unpickle round trips of the platform.
    """
    blob = pickle.dumps(pickle.loads(blob), protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest()


@dataclasses.dataclass
class LaneSource:
    """Where a campaign's lane platforms come from.

    Captures the ``platform`` / ``platforms`` choice of ``Campaign.run``
    without materialising anything, so the sharded executor can ship
    each worker only its own slice and materialise lanes worker-side.
    Two modes:

    * ``"platform"`` — ``base`` is the base platform's pickle, taken
      once by :meth:`resolve`; every lane is unpickled from it.  A
      pickle round trip preserves platform state bit for bit, so every
      lane starts from the base's exact state and worker-side
      materialisation equals local materialisation exactly.
    * ``"platforms"`` — ``base`` is a list with one platform per lane,
      run in place without branching (the sharded executor runs
      worker-side copies).
    """

    mode: str                   # "platform" | "platforms"
    base: object
    _digest: Optional[str] = dataclasses.field(default=None, repr=False)

    @classmethod
    def resolve(cls, platform, platforms, n_lanes: int) -> "LaneSource":
        """Check the ``Campaign.run`` bases; snapshot a ``platform``."""
        from ..platform.gyro_platform import GyroPlatform
        if (platform is None) == (platforms is None):
            raise ConfigurationError(
                "give exactly one of platform or platforms")
        bases = [platform] if platforms is None else list(platforms)
        for base in bases:
            if not isinstance(base, GyroPlatform):
                raise ConfigurationError(
                    "campaign lanes run on GyroPlatform objects, got "
                    f"{type(base).__name__}")
        if platforms is None:
            return cls("platform", _snapshot(platform))
        if len(bases) != n_lanes:
            raise ConfigurationError(
                f"got {len(bases)} platforms for {n_lanes} lanes")
        return cls("platforms", bases)

    def materialize(self, indices: Sequence[int]) -> list:
        """Build the lane platforms for the given campaign lane indices.

        ``platform`` lanes are one ``pickle.loads`` of the snapshot
        each; ``platforms`` lanes are the given platforms themselves.
        """
        if self.mode == "platforms":
            return [self.base[i] for i in indices]
        return [pickle.loads(self.base) for _ in indices]

    def subset(self, indices: Sequence[int]) -> "LaneSource":
        """The slice of this source one shard needs (for its payload)."""
        if self.mode == "platforms":
            return LaneSource("platforms", [self.base[i] for i in indices])
        return self

    def starting_state(self, index: int) -> bytes:
        """Lane ``index``'s starting state: its platform's pickle."""
        return (_snapshot(self.base[index]) if self.mode == "platforms"
                else self.base)

    def lane_digests(self, n_lanes: int) -> List[str]:
        """Per-lane content digests of the starting state (store keys).

        Two lanes key identically exactly when they start from the same
        platform state: with a shared base (``platform`` mode) every
        lane gets the snapshot's digest, computed once per source; with
        pre-built ``platforms`` each lane digests its own platform, so
        heterogeneous fleets (e.g. the DSE sweep's per-point
        configurations) never alias.  The digests are stable across
        process restarts and pickle round trips — the property the
        result store's keys and the manifest's resume check rely on.
        """
        if self.mode == "platforms":
            return ["platforms:" + _normalised_digest(_snapshot(platform))
                    for platform in self.base]
        if self._digest is None:
            self._digest = "platform:" + _normalised_digest(self.base)
        return [self._digest] * n_lanes


@dataclasses.dataclass(frozen=True)
class ExecutorSpec:
    """One registered campaign execution backend.

    Attributes:
        name: registry key (the ``executor=`` value of ``Campaign.run``).
        runner: entry point ``runner(campaign, source, engine, options)``
            returning a :class:`CampaignResult`.
    """

    name: str
    runner: Callable


_REGISTRY: Dict[str, ExecutorSpec] = {}


def register_executor(spec: ExecutorSpec) -> None:
    """Register an executor (rejects duplicate names)."""
    if spec.name in _REGISTRY:
        raise ConfigurationError(
            f"executor {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec


def executor_names() -> Tuple[str, ...]:
    """Names of the registered executors."""
    return tuple(_REGISTRY)


def get_executor(name: str) -> ExecutorSpec:
    """Resolve an executor name, raising ``ConfigurationError`` on miss."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown executor {name!r}; available executors: "
            f"{', '.join(sorted(_REGISTRY))}")
    return spec


def validate_executor(name: str) -> str:
    """Validate an executor name and return it unchanged."""
    get_executor(name)
    return name


# ---------------------------------------------------------------------------
# local executor
# ---------------------------------------------------------------------------

def _run_local(campaign: Campaign, source: LaneSource, engine: str,
               options: ExecutorOptions) -> CampaignResult:
    if options.workers not in (None, 1):
        raise ConfigurationError(
            "the local executor runs in-process; pass executor='sharded' "
            "(or just workers=N) to fan lanes out over worker processes")
    lanes = source.materialize(range(len(campaign.programs)))
    return CampaignResult(_execute_lanes(campaign.programs, lanes, engine))


# ---------------------------------------------------------------------------
# sharded executor
# ---------------------------------------------------------------------------

class _HeartbeatWriter:
    """Background thread beating a JSON liveness file for one attempt.

    The beat is a tmp-write + atomic rename, so the parent never reads a
    torn heartbeat; its staleness check only consults the file's mtime.
    A crash (``os._exit``, SIGKILL) takes the thread down with the
    process and the file goes stale — exactly the signal the scheduler
    uses to tell *dead* from *slow*.
    """

    def __init__(self, path: str, interval_s: float, shard_id: int,
                 attempt: int):
        self.path = path
        self.interval_s = interval_s
        self.shard_id = shard_id
        self.attempt = attempt
        self._sequence = 0
        self._halt = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, daemon=True,
            name=f"heartbeat-shard-{shard_id}")

    def start(self) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        self._beat()
        self._thread.start()

    def stop(self) -> None:
        self._halt.set()
        if self._thread.is_alive():
            self._thread.join(timeout=2 * self.interval_s)

    def _loop(self) -> None:
        while not self._halt.wait(self.interval_s):
            self._beat()

    def _beat(self) -> None:
        self._sequence += 1
        tmp = f"{self.path}.tmp-{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump({"shard_id": self.shard_id,
                           "attempt": self.attempt,
                           "pid": os.getpid(),
                           "sequence": self._sequence,
                           "time_unix": time.time()}, fh)
            os.replace(tmp, self.path)
        except OSError:
            # a failing heartbeat must never kill the simulation; a
            # silent worker is at worst declared dead and rescheduled
            pass


def _shard_worker_main(task: dict) -> None:
    """Worker process entry point: beat, simulate, publish, exit.

    Everything it needs arrived pickled in ``task``; the outcome
    (including each lane's final platform) goes to the *attempt* result
    file via an atomic rename, never back over a pipe — the parent
    digest-verifies that file and promotes it to the canonical shard
    result, so a worker that dies after publishing still counts as done
    and a corrupt publish can never be credited.  Failures are reported
    through an error file (exception class + truncated traceback) and a
    non-zero exit code.
    """
    heartbeat = _HeartbeatWriter(task["heartbeat_path"],
                                 task["heartbeat_interval_s"],
                                 task["shard_id"], task["attempt"])
    if task.get("chaos") is not None:
        _chaos.activate(task["chaos"])
    try:
        heartbeat.start()
        _chaos.fire("worker.start", shard=task["shard_id"],
                    attempt=task["attempt"], heartbeat=heartbeat)
        source: LaneSource = task["source"]
        lanes = source.materialize(range(len(task["programs"])))
        outcomes = _execute_lanes(task["programs"], lanes, task["engine"])
        write_shard_payload(task["result_path"], {
            "shard_id": task["shard_id"],
            "attempt": task["attempt"],
            "lane_indices": task["lane_indices"],
            "digests": task["digests"],
            "outcomes": outcomes,
        })
    except BaseException as exc:
        write_error_report(task["error_path"], exc)
        heartbeat.stop()
        os._exit(1)
    heartbeat.stop()


def _partition(n_lanes: int, workers: int,
               shard_size: Optional[int]) -> List[List[int]]:
    """Contiguous lane blocks, spread evenly over the workers."""
    if shard_size is None:
        shard_size = math.ceil(n_lanes / workers)
    return [list(range(lo, min(lo + shard_size, n_lanes)))
            for lo in range(0, n_lanes, shard_size)]


def _check_picklable(campaign: Campaign, source: LaneSource,
                     options: ExecutorOptions) -> str:
    """Pickle-compatibility check and lane-source digest for the manifest.

    The programs and the chaos plan must pickle to reach a worker.  The
    resume digest is the first 16 hex digits of the SHA-256 over the
    lane digests the result store keys on, so a run resumed with its
    base restored from a pickle matches the run it resumes.
    """
    try:
        pickle.dumps((campaign.programs, options.chaos),
                     protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise ConfigurationError(
            "the sharded executor ships lane programs to worker processes "
            "by pickling them; every stop condition, metric extractor "
            "and chaos model must be picklable (the scenario and chaos "
            "libraries' are — lambdas and closures are not): "
            f"{exc}") from exc
    digests = "\n".join(source.lane_digests(len(campaign.programs)))
    return hashlib.sha256(digests.encode("ascii")).hexdigest()[:16]


def _terminate_process(process) -> None:
    """Stop a worker process, escalating from terminate to kill."""
    if process.is_alive():
        process.terminate()
        process.join(timeout=1.0)
    if process.is_alive():
        process.kill()
        process.join(timeout=1.0)


def _run_sharded(campaign: Campaign, source: LaneSource, engine: str,
                 options: ExecutorOptions) -> CampaignResult:
    source_digest = _check_picklable(campaign, source, options)
    workers = options.workers or max(1, os.cpu_count() or 1)
    policy = options.retry or RetryPolicy()
    n_lanes = len(campaign.programs)
    partition = _partition(n_lanes, workers, options.shard_size)
    digests = [[s.digest() for s in program]
               for program in campaign.programs]
    shards = [ShardRecord(shard_id=k, lane_indices=indices,
                          digests=[digests[i] for i in indices])
              for k, indices in enumerate(partition)]
    directory = options.manifest_dir or tempfile.mkdtemp(
        prefix="repro-campaign-")
    manifest = policy.call(lambda: CampaignManifest.create_or_resume(
        str(directory), campaign.name, engine, source_digest, shards,
        retry=policy.to_dict()))
    policy.call(manifest.write)

    # resume scan: credit shards whose canonical result file already
    # exists and verifies (a previous run's completed work), and salvage
    # verified *attempt* files a killed run published but never promoted
    recovered = False
    for shard in manifest.unfinished():
        payload = (manifest.load_shard_result(shard)
                   or manifest.salvage_attempt_result(shard))
        if payload is not None:
            shard.status = SHARD_DONE
            shard.error = None
            recovered = True
    if recovered:
        policy.call(manifest.write)

    _ShardScheduler(manifest, campaign, source, engine, options, policy,
                    workers).run()

    # shards still unfinished after the retry budget are quarantined: the
    # campaign completes with partial results and an explicit failure
    # report (attempt history included) instead of discarding the shards
    # that did succeed
    failed_shards = [
        {"shard_id": s.shard_id,
         "lane_indices": list(s.lane_indices),
         "attempts": s.attempts,
         "error": s.error or "no result file",
         "history": [dict(entry) for entry in s.history]}
        for s in manifest.unfinished()]

    lane_outcomes: List[Optional[LaneOutcome]] = [None] * n_lanes
    for shard in manifest.shards:
        if shard.status != SHARD_DONE:
            continue
        payload = manifest.load_shard_result(shard)
        if payload is None:
            raise SimulationError(
                f"shard {shard.shard_id} is marked done but its result "
                f"file failed verification; delete {manifest.directory!r} "
                "and re-run")
        for index, outcome in zip(shard.lane_indices, payload["outcomes"]):
            lane_outcomes[index] = outcome
    return CampaignResult(lane_outcomes, failed_shards=failed_shards)


class _AttemptHandle:
    """One live (or just-finished) worker attempt the scheduler tracks."""

    __slots__ = ("record", "number", "speculative", "process",
                 "started_monotonic", "heartbeat_path", "finished")

    def __init__(self, record: ShardRecord, number: int, speculative: bool,
                 process, heartbeat_path: str):
        self.record = record
        self.number = number
        self.speculative = speculative
        self.process = process
        self.started_monotonic = time.monotonic()
        self.heartbeat_path = heartbeat_path
        self.finished = False


class _ShardScheduler:
    """Event-driven per-attempt scheduler for the sharded executor.

    Replaces the old lock-step retry *rounds* (which slept out a global
    exponential backoff between rounds and waited the full shard timeout
    on crashed workers).  Each shard attempt is its own
    ``multiprocessing.Process``; the scheduler polls them all, credits
    verified results the moment they land, distinguishes dead workers
    from slow ones via heartbeat staleness, launches speculative backups
    for stragglers, and reschedules failures per the
    :class:`~repro.common.retry.RetryPolicy` — each backoff capped by
    the remaining deadline budget and skipped entirely for known-dead
    workers.
    """

    def __init__(self, manifest: CampaignManifest, campaign: Campaign,
                 source: LaneSource, engine: str, options: ExecutorOptions,
                 policy: RetryPolicy, workers: int):
        self.manifest = manifest
        self.campaign = campaign
        self.source = source
        self.engine = engine
        self.options = options
        self.policy = policy
        self.workers = workers
        try:
            self.mp_context = multiprocessing.get_context("fork")
        except ValueError:        # platforms without fork
            self.mp_context = multiprocessing.get_context()
        self.running: List[_AttemptHandle] = []
        self.completed_durations: List[float] = []
        self.started_monotonic = time.monotonic()
        # shard_id -> mutable slot state; "launched" counts this run's
        # attempts (the retry budget is per run, so a resumed campaign
        # gets a fresh budget while record.attempts stays cumulative)
        self.slots: Dict[int, dict] = {}
        self.dead_after_s = max(
            options.heartbeat_interval_s * options.heartbeat_grace,
            4 * POLL_INTERVAL_S)
        # a freshly forked worker needs time for its first beat (import
        # and fork latency on a loaded host), so silence is measured
        # against a larger allowance until the first beat lands
        self.startup_grace_s = self.dead_after_s + 10.0

    # -- main loop ----------------------------------------------------------

    def run(self) -> None:
        for record in self.manifest.unfinished():
            self.slots[record.shard_id] = {
                "record": record, "eligible": 0.0, "launched": 0,
                "pending": True, "quarantined": False}
        if not self.slots:
            return
        os.makedirs(self.manifest.heartbeat_dir, exist_ok=True)
        while True:
            progressed = self._harvest()
            progressed |= self._launch_eligible()
            if not self.running and not any(
                    slot["pending"] for slot in self.slots.values()):
                break
            if not progressed:
                time.sleep(POLL_INTERVAL_S)

    # -- harvesting ---------------------------------------------------------

    def _harvest(self) -> bool:
        progressed = False
        for attempt in list(self.running):
            if attempt.finished:
                continue
            if self._try_credit(attempt):
                progressed = True
                continue
            process = attempt.process
            runtime = time.monotonic() - attempt.started_monotonic
            if not process.is_alive():
                process.join()
                # the worker may have published in the window since the
                # last poll — credit before declaring the attempt failed
                if self._try_credit(attempt):
                    progressed = True
                    continue
                self._harvest_dead(attempt)
                progressed = True
                continue
            silence = self._heartbeat_silence(attempt, runtime)
            if silence is not None:
                # alive by is_alive() but not beating: frozen or wedged.
                # Declare it dead now instead of waiting out the shard
                # timeout; known-dead reschedules skip the backoff too.
                _terminate_process(process)
                self._fail(attempt, ATTEMPT_HEARTBEAT_LOST,
                           f"no heartbeat for {silence:.2f} s (interval "
                           f"{self.options.heartbeat_interval_s} s); "
                           "worker declared dead")
                progressed = True
                continue
            if (self.options.shard_timeout_s is not None
                    and runtime > self.options.shard_timeout_s):
                _terminate_process(process)
                self._fail(attempt, ATTEMPT_TIMEOUT,
                           f"timed out after {self.options.shard_timeout_s}"
                           " s")
                progressed = True
                continue
            self._maybe_speculate(attempt, runtime)
        self.running = [a for a in self.running if not a.finished]
        return progressed

    def _heartbeat_silence(self, attempt: _AttemptHandle,
                           runtime: float) -> Optional[float]:
        """Seconds of heartbeat silence past the allowance, else None."""
        try:
            age = time.time() - os.path.getmtime(attempt.heartbeat_path)
        except OSError:
            # no beat published yet: measure against the startup grace
            return runtime if runtime > self.startup_grace_s else None
        return age if age > self.dead_after_s else None

    def _try_credit(self, attempt: _AttemptHandle) -> bool:
        record = attempt.record
        payload = self.manifest.promote_attempt_result(record,
                                                       attempt.number)
        if payload is None:
            return False
        duration = time.monotonic() - attempt.started_monotonic
        self._finish_entry(attempt, ATTEMPT_OK)
        attempt.finished = True
        record.status = SHARD_DONE
        record.error = None
        self.completed_durations.append(duration)
        slot = self.slots[record.shard_id]
        slot["pending"] = False
        # the speculative race (if any) is settled by verification: the
        # loser is terminated and can never touch the canonical result,
        # because workers only ever write attempt-private files
        for sibling in self.running:
            if (sibling.finished or sibling is attempt
                    or sibling.record.shard_id != record.shard_id):
                continue
            _terminate_process(sibling.process)
            self._finish_entry(sibling, ATTEMPT_SUPERSEDED)
            sibling.finished = True
        if attempt.process.is_alive():
            attempt.process.join(timeout=2.0)
        self.manifest.clear_attempt_files(record)
        self.policy.call(self.manifest.write)
        return True

    def _harvest_dead(self, attempt: _AttemptHandle) -> None:
        record = attempt.record
        report = self.manifest.load_attempt_error(record.shard_id,
                                                  attempt.number)
        exitcode = attempt.process.exitcode
        if report is not None:
            self._fail(attempt, ATTEMPT_ERROR,
                       f"{report['type']}: {report['message']}",
                       report=report)
        elif exitcode == 0:
            self._fail(attempt, ATTEMPT_VERIFY_FAILED,
                       "worker exited cleanly but its result file is "
                       "missing or failed verification")
        else:
            self._fail(attempt, ATTEMPT_CRASH,
                       f"worker died with exit code {exitcode} before "
                       "publishing a result")

    def _fail(self, attempt: _AttemptHandle, outcome: str, message: str,
              report: Optional[dict] = None) -> None:
        record = attempt.record
        self._finish_entry(attempt, outcome, report)
        attempt.finished = True
        if record.status != SHARD_DONE:
            record.status = SHARD_FAILED
            record.error = f"attempt {attempt.number}: {message}"
            if not self._live_attempts(record.shard_id):
                self._schedule_or_quarantine(record, outcome)
        self.policy.call(self.manifest.write)

    def _schedule_or_quarantine(self, record: ShardRecord,
                                outcome: str) -> None:
        slot = self.slots[record.shard_id]
        now = time.monotonic()
        remaining = self.policy.remaining(self.started_monotonic, now)
        if slot["launched"] >= self.policy.max_attempts:
            slot["pending"] = False
            slot["quarantined"] = True
            return
        if remaining is not None and remaining <= 0:
            slot["pending"] = False
            slot["quarantined"] = True
            record.error = (f"{record.error} [deadline budget "
                            f"{self.policy.deadline_s} s exhausted]")
            return
        if outcome in (ATTEMPT_CRASH, ATTEMPT_HEARTBEAT_LOST):
            # the worker is known dead — there is no host pressure to
            # wait out, so reschedule immediately
            delay = 0.0
        else:
            delay = self.policy.delay_for(slot["launched"])
            if remaining is not None:
                delay = min(delay, remaining)
        slot["eligible"] = now + delay

    def _finish_entry(self, attempt: _AttemptHandle, outcome: str,
                      report: Optional[dict] = None) -> None:
        entry = attempt.record.attempt_entry(attempt.number)
        if entry is None:
            return
        entry["outcome"] = outcome
        entry["ended_unix"] = time.time()
        entry["duration_s"] = round(
            time.monotonic() - attempt.started_monotonic, 6)
        if report is not None:
            entry["error"] = report

    def _live_attempts(self, shard_id: int) -> List[_AttemptHandle]:
        return [a for a in self.running
                if not a.finished and a.record.shard_id == shard_id]

    # -- launching ----------------------------------------------------------

    def _launch_eligible(self) -> bool:
        progressed = False
        now = time.monotonic()
        for slot in self.slots.values():
            if len(self.running) >= self.workers:
                break
            if not slot["pending"] or slot["quarantined"]:
                continue
            if slot["eligible"] > now or self._live_attempts(
                    slot["record"].shard_id):
                continue
            self._launch(slot, speculative=False)
            progressed = True
        return progressed

    def _maybe_speculate(self, attempt: _AttemptHandle,
                         runtime: float) -> None:
        """Launch a speculative backup for a straggling attempt."""
        factor = self.options.speculation_factor
        if factor is None or attempt.speculative:
            return
        record = attempt.record
        slot = self.slots[record.shard_id]
        if (slot["launched"] >= self.policy.max_attempts
                or len(self._live_attempts(record.shard_id)) > 1
                or len(self.completed_durations) < SPECULATION_MIN_DONE
                or len(self.running) >= self.workers):
            return
        median = statistics.median(self.completed_durations)
        if runtime <= factor * max(median, POLL_INTERVAL_S):
            return
        self._launch(slot, speculative=True)

    def _launch(self, slot: dict, speculative: bool) -> None:
        record: ShardRecord = slot["record"]
        record.attempts += 1
        slot["launched"] += 1
        number = record.attempts
        task = {
            "shard_id": record.shard_id,
            "attempt": number,
            "engine": self.engine,
            "programs": [self.campaign.programs[i]
                         for i in record.lane_indices],
            "lane_indices": record.lane_indices,
            "digests": record.digests,
            "source": self.source.subset(record.lane_indices),
            "result_path": self.manifest.attempt_result_path(
                record.shard_id, number),
            "error_path": self.manifest.attempt_error_path(
                record.shard_id, number),
            "heartbeat_path": self.manifest.heartbeat_path(
                record.shard_id, number),
            "heartbeat_interval_s": self.options.heartbeat_interval_s,
            "chaos": self.options.chaos,
        }
        process = self.mp_context.Process(
            target=_shard_worker_main, args=(task,), daemon=True)
        process.start()
        handle = _AttemptHandle(record, number, speculative, process,
                                task["heartbeat_path"])
        record.history.append({
            "attempt": number,
            "speculative": speculative,
            "pid": process.pid,
            "started_unix": time.time(),
            "ended_unix": None,
            "duration_s": None,
            "outcome": ATTEMPT_RUNNING,
        })
        self.running.append(handle)
        self.policy.call(self.manifest.write)


register_executor(ExecutorSpec(EXECUTOR_LOCAL, runner=_run_local))
register_executor(ExecutorSpec(EXECUTOR_SHARDED, runner=_run_sharded))
