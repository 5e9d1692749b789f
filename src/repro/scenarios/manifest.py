"""Batch manifests for the sharded campaign executor.

A sharded campaign writes one JSON *batch manifest* describing every
shard — its lane indices, the content digests of those lanes' scenario
programs and its execution status — to the manifest directory **before**
any worker launches, and rewrites it (atomically) as shards complete or
fail.  Workers never touch the manifest; each one writes its shard's
outcomes to ``shard-NNNN.pkl`` via an atomic rename, so a crashed or
killed worker leaves either a complete result file or none at all.

That makes the manifest directory a resumable record of the campaign:
pointing a new ``Campaign.run`` at the same directory verifies the
manifest was produced by the same campaign (name, engine, lane digests,
partition and lane-source digest all have to match) and re-runs only the
shards whose result files are missing or fail verification.  The layout
follows the ``create_batch_manifest.py`` / ``verify_and_retry`` pattern
of HPC array-job pipelines.

Execution hardening (chaos-tested by ``repro.chaos``) adds three more
artifact families to the directory: per-attempt result files
(``shard-NNNN.attempt-KK.pkl``, digest-verified and *promoted* to the
canonical name by the parent — required for speculative execution to be
safe), per-attempt error reports
(``shard-NNNN.attempt-KK.error.json``, the failure reason a dying
worker leaves behind) and per-attempt heartbeat files under
``heartbeats/`` (how the scheduler tells a dead worker from a slow
one).  Each shard record carries its full attempt ``history``.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import json
import os
import pickle
import traceback
import warnings
from typing import Dict, List, Optional

from ..chaos.runtime import fire as _chaos_fire
from ..common.exceptions import ConfigurationError


class ManifestCorruptionError(ConfigurationError):
    """A manifest file exists but cannot be parsed (truncated/corrupted).

    Distinct from an ordinary :class:`ConfigurationError` so the resume
    path can tell "this directory holds a *different* campaign" (a user
    mistake — refuse) apart from "this directory holds a *damaged*
    manifest" (a crash artifact — salvageable: the shard result files
    are individually verifiable, so the manifest can be rebuilt from
    them).
    """

#: Shard lifecycle states recorded in the manifest.
SHARD_PENDING = "pending"
SHARD_DONE = "done"
SHARD_FAILED = "failed"

MANIFEST_FILENAME = "manifest.json"
MANIFEST_VERSION = 2
HEARTBEAT_DIRNAME = "heartbeats"

#: Attempt outcomes recorded in a shard's ``history``.
ATTEMPT_OK = "ok"
ATTEMPT_CRASH = "crash"
ATTEMPT_ERROR = "error"
ATTEMPT_TIMEOUT = "timeout"
ATTEMPT_HEARTBEAT_LOST = "heartbeat-lost"
ATTEMPT_VERIFY_FAILED = "verify-failed"
ATTEMPT_SUPERSEDED = "superseded"
ATTEMPT_RUNNING = "running"

#: Traceback truncation for per-attempt failure reports.
TRACEBACK_LIMIT_CHARS = 2000


@dataclasses.dataclass
class ShardRecord:
    """One shard's slice of the campaign and its execution status.

    Attributes:
        shard_id: position of the shard in the partition.
        lane_indices: campaign lane indices this shard simulates.
        digests: per lane, the content digests of its scenario program
            (:meth:`~repro.scenarios.scenario.Scenario.digest`) — the
            integrity key for resume and result verification.
        status: ``"pending"``, ``"done"`` or ``"failed"``.
        attempts: how many times the shard has been launched (speculative
            backups included).
        error: last failure description, if any.
        history: one record per launched attempt — ``attempt`` number,
            ``speculative`` flag, ``pid``, ``started_unix`` /
            ``ended_unix`` / ``duration_s`` stamps, the ``outcome``
            (``"ok"``, ``"crash"``, ``"error"``, ``"timeout"``,
            ``"heartbeat-lost"``, ``"verify-failed"``,
            ``"superseded"``, or ``"running"`` while in flight) and,
            for reported exceptions, an ``error`` dict carrying the
            exception class, message and truncated traceback.
    """

    shard_id: int
    lane_indices: List[int]
    digests: List[List[str]]
    status: str = SHARD_PENDING
    attempts: int = 0
    error: Optional[str] = None
    history: List[dict] = dataclasses.field(default_factory=list)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ShardRecord":
        return cls(shard_id=int(data["shard_id"]),
                   lane_indices=[int(i) for i in data["lane_indices"]],
                   digests=[[str(d) for d in lane]
                            for lane in data["digests"]],
                   status=str(data["status"]),
                   attempts=int(data.get("attempts", 0)),
                   error=data.get("error"),
                   history=[dict(entry)
                            for entry in data.get("history", [])])

    def attempt_entry(self, number: int) -> Optional[dict]:
        """The history record of attempt ``number``, if recorded."""
        for entry in reversed(self.history):
            if entry.get("attempt") == number:
                return entry
        return None

    def identity(self) -> tuple:
        """The shard fields that must match for a resume to be valid."""
        return (self.shard_id, tuple(self.lane_indices),
                tuple(tuple(lane) for lane in self.digests))


class CampaignManifest:
    """The on-disk state of one sharded campaign run."""

    def __init__(self, directory: str, campaign_name: str, engine: str,
                 source_digest: str, shards: List[ShardRecord],
                 retry: Optional[dict] = None):
        self.directory = directory
        self.campaign_name = campaign_name
        self.engine = engine
        self.source_digest = source_digest
        self.shards = shards
        # informational record of the run's RetryPolicy (to_dict form);
        # not part of the resume identity — a resume may retry with a
        # different policy
        self.retry = retry

    # -- paths --------------------------------------------------------------

    @property
    def path(self) -> str:
        return os.path.join(self.directory, MANIFEST_FILENAME)

    @property
    def heartbeat_dir(self) -> str:
        return os.path.join(self.directory, HEARTBEAT_DIRNAME)

    def shard_result_path(self, shard_id: int) -> str:
        """The canonical (credited) result file of one shard."""
        return os.path.join(self.directory, f"shard-{shard_id:04d}.pkl")

    def attempt_result_path(self, shard_id: int, attempt: int) -> str:
        """Where one attempt publishes its result before promotion.

        Attempts never write the canonical path directly: the parent
        digest-verifies an attempt file first and *promotes* it with an
        atomic rename, so a speculative backup (or a late straggler from
        a killed run) can never clobber a credited result with an
        unverified one.
        """
        return os.path.join(self.directory,
                            f"shard-{shard_id:04d}.attempt-{attempt:02d}.pkl")

    def attempt_error_path(self, shard_id: int, attempt: int) -> str:
        return os.path.join(
            self.directory,
            f"shard-{shard_id:04d}.attempt-{attempt:02d}.error.json")

    def heartbeat_path(self, shard_id: int, attempt: int) -> str:
        return os.path.join(
            self.heartbeat_dir,
            f"shard-{shard_id:04d}.attempt-{attempt:02d}.json")

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "campaign_name": self.campaign_name,
            "engine": self.engine,
            "source_digest": self.source_digest,
            "retry": self.retry,
            "shards": [shard.to_dict() for shard in self.shards],
        }

    def write(self) -> None:
        """Atomically persist the manifest (write temp file + rename).

        The chaos site ``"manifest.write"`` fires first, so an injected
        ENOSPC hits before any bytes land — the executor wraps this in
        its :class:`~repro.common.retry.RetryPolicy` to ride out
        transient failures.
        """
        _chaos_fire("manifest.write", path=self.path)
        tmp = self.path + f".tmp-{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
        os.replace(tmp, self.path)

    @classmethod
    def load(cls, directory: str) -> "CampaignManifest":
        path = os.path.join(directory, MANIFEST_FILENAME)
        if not os.path.exists(path):
            raise ConfigurationError(
                f"cannot read campaign manifest {path!r}: no such file")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            # a manifest that exists but does not parse is a truncated or
            # hand-corrupted file, not a different campaign
            raise ManifestCorruptionError(
                f"cannot read campaign manifest {path!r}: {exc}") from exc
        if data.get("version") != MANIFEST_VERSION:
            raise ConfigurationError(
                f"campaign manifest {path!r} has version "
                f"{data.get('version')!r}, expected {MANIFEST_VERSION}")
        try:
            return cls(directory=directory,
                       campaign_name=str(data["campaign_name"]),
                       engine=str(data["engine"]),
                       source_digest=str(data["source_digest"]),
                       shards=[ShardRecord.from_dict(s)
                               for s in data["shards"]],
                       retry=data.get("retry"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestCorruptionError(
                f"campaign manifest {path!r} is malformed: "
                f"{type(exc).__name__}: {exc}") from exc

    @classmethod
    def create_or_resume(cls, directory: str, campaign_name: str,
                         engine: str, source_digest: str,
                         shards: List[ShardRecord],
                         retry: Optional[dict] = None) -> "CampaignManifest":
        """Open a manifest directory: fresh start or verified resume.

        When ``directory`` already holds a manifest it must describe the
        same campaign — same name, engine, shard partition, scenario
        digests and lane-source digest — otherwise a
        :class:`ConfigurationError` explains the mismatch rather than
        silently mixing two campaigns' shards.  On a valid resume the
        previous shard statuses (and completed result files) are kept,
        so only unfinished work re-runs.

        A manifest that exists but is truncated or corrupted does not
        kill the resume: the damaged file is moved aside
        (``manifest.json.corrupt-N``), a warning reports it, and a fresh
        manifest is written.  Completed ``shard-NNNN.pkl`` files survive
        untouched and are individually digest-verified, so the
        verify-and-retry loop credits them back without re-simulating —
        the manifest is rebuilt from the surviving shard results.
        """
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, MANIFEST_FILENAME)
        if os.path.exists(path):
            try:
                manifest = cls.load(directory)
            except ManifestCorruptionError as exc:
                salvage = free_name(f"{path}.corrupt")
                os.replace(path, salvage)
                warnings.warn(
                    f"campaign manifest {path!r} was corrupt ({exc}); "
                    f"moved it to {salvage!r} and rebuilt the manifest — "
                    "surviving shard result files will be verified and "
                    "credited without re-simulation", RuntimeWarning,
                    stacklevel=2)
                manifest = cls(directory, campaign_name, engine,
                               source_digest, shards, retry=retry)
                manifest.write()
                return manifest
            fresh = cls(directory, campaign_name, engine, source_digest,
                        shards)
            mismatch = manifest._describe_mismatch(fresh)
            if mismatch:
                raise ConfigurationError(
                    f"manifest directory {directory!r} belongs to a "
                    f"different campaign ({mismatch}); use a fresh "
                    "manifest_dir or delete the stale one")
            manifest.retry = retry
            return manifest
        manifest = cls(directory, campaign_name, engine, source_digest,
                       shards, retry=retry)
        manifest.write()
        return manifest

    def _describe_mismatch(self, other: "CampaignManifest") -> Optional[str]:
        if self.campaign_name != other.campaign_name:
            return (f"campaign name {self.campaign_name!r} != "
                    f"{other.campaign_name!r}")
        if self.engine != other.engine:
            return f"engine {self.engine!r} != {other.engine!r}"
        if self.source_digest != other.source_digest:
            return "lane source changed"
        if len(self.shards) != len(other.shards):
            return (f"{len(self.shards)} shards on disk != "
                    f"{len(other.shards)} requested")
        for mine, theirs in zip(self.shards, other.shards):
            if mine.identity() != theirs.identity():
                return (f"shard {mine.shard_id} covers different lanes "
                        "or scenario programs")
        return None

    # -- shard results ------------------------------------------------------

    def load_shard_result(self, record: ShardRecord) -> Optional[dict]:
        """Load and verify one shard's canonical result file.

        Returns the payload only when the file exists, unpickles and
        matches the shard's identity (id, lane indices and scenario
        digests); anything else returns None so the verify-and-retry
        loop treats the shard as not done.
        """
        return self.load_verified_payload(
            self.shard_result_path(record.shard_id), record)

    def load_verified_payload(self, path: str,
                              record: ShardRecord) -> Optional[dict]:
        """Load ``path``, verify its checksum and shard identity.

        The file is a checksummed envelope (see
        :func:`write_shard_payload`): the SHA-256 over the payload
        pickle bytes must match before anything is unpickled into a
        result — a bit flip *anywhere* in the payload fails here, not
        just one that breaks the pickle framing — and the payload must
        carry ``record``'s shard identity (id, lane indices, scenario
        digests).  Anything else returns None so the scheduler treats
        the shard as not done.
        """
        if not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as fh:
                envelope = pickle.load(fh)
            if (not isinstance(envelope, dict)
                    or not isinstance(envelope.get("blob"), bytes)
                    or hashlib.sha256(envelope["blob"]).hexdigest()
                    != envelope.get("sha256")):
                return None
            payload = pickle.loads(envelope["blob"])
        except Exception:
            return None
        if (not isinstance(payload, dict)
                or payload.get("shard_id") != record.shard_id
                or payload.get("lane_indices") != record.lane_indices
                or payload.get("digests") != record.digests):
            return None
        return payload

    def promote_attempt_result(self, record: ShardRecord,
                               attempt: int) -> Optional[dict]:
        """Verify one attempt's result file and credit it canonically.

        The digest verification happens *before* the atomic rename onto
        the canonical path — an unverified attempt file (corrupted
        payload, foreign shard) is never promoted.  Returns the verified
        payload, or None when the attempt file is absent or fails
        verification.
        """
        path = self.attempt_result_path(record.shard_id, attempt)
        payload = self.load_verified_payload(path, record)
        if payload is None:
            return None
        os.replace(path, self.shard_result_path(record.shard_id))
        return payload

    def salvage_attempt_result(self, record: ShardRecord) -> Optional[dict]:
        """Promote any surviving verified attempt file of this shard.

        Used by the resume scan: a run killed between an attempt's
        publish and its promotion (or a late straggler that finished
        after its run died) leaves a verifiable
        ``shard-NNNN.attempt-KK.pkl`` behind; crediting it avoids
        re-simulating completed work.
        """
        pattern = os.path.join(self.directory,
                               f"shard-{record.shard_id:04d}.attempt-*.pkl")
        for path in sorted(glob.glob(pattern)):
            payload = self.load_verified_payload(path, record)
            if payload is not None:
                os.replace(path, self.shard_result_path(record.shard_id))
                return payload
        return None

    def load_attempt_error(self, shard_id: int,
                           attempt: int) -> Optional[dict]:
        """The failure report one attempt wrote before dying, if any."""
        path = self.attempt_error_path(shard_id, attempt)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            return None
        return report if isinstance(report, dict) else None

    def clear_attempt_files(self, record: ShardRecord) -> None:
        """Drop leftover attempt result/error files of a finished shard."""
        for pattern in (f"shard-{record.shard_id:04d}.attempt-*.pkl",
                        f"shard-{record.shard_id:04d}.attempt-*.error.json"):
            for path in glob.glob(os.path.join(self.directory, pattern)):
                try:
                    os.remove(path)
                except OSError:
                    pass

    # -- queries ------------------------------------------------------------

    def unfinished(self) -> List[ShardRecord]:
        return [s for s in self.shards if s.status != SHARD_DONE]

    def counts(self) -> Dict[str, int]:
        counts = {SHARD_PENDING: 0, SHARD_DONE: 0, SHARD_FAILED: 0}
        for shard in self.shards:
            counts[shard.status] = counts.get(shard.status, 0) + 1
        return counts


def free_name(base: str) -> str:
    """First free ``<base>-N`` filename, for moving a bad file aside.

    Shared by the manifest's corrupt-file sideline and the result
    store's quarantine, so neither ever overwrites an earlier one.
    """
    for n in range(10_000):
        candidate = f"{base}-{n}"
        if not os.path.exists(candidate):
            return candidate
    raise ConfigurationError(f"too many files named {base!r}-N")


def write_shard_payload(path: str, payload: dict) -> None:
    """Atomically persist one shard's outcome payload, checksummed.

    Called from worker processes: the payload pickle travels inside an
    envelope carrying its own SHA-256, so the parent's verification
    catches any corruption of the payload bytes (not only flips that
    happen to break the pickle framing), and the temp-file + rename
    dance means a worker killed mid-write leaves no partial result file
    at the canonical name.  The chaos site ``"shard.write"`` fires
    between the temp write and the rename — exactly where a torn write,
    a slow disk or a bit flip would land.
    """
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    envelope = {"sha256": hashlib.sha256(blob).hexdigest(), "blob": blob}
    tmp = path + f".tmp-{os.getpid()}"
    with open(tmp, "wb") as fh:
        pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
    _chaos_fire("shard.write", shard=payload.get("shard_id"),
                attempt=payload.get("attempt"), path=tmp)
    os.replace(tmp, path)


def write_error_report(path: str, exc: BaseException) -> None:
    """Atomically persist a worker's failure reason before it exits.

    The report (exception class, message, truncated traceback) is what
    the parent records in the shard's attempt history — so a quarantined
    shard in a partial campaign result says *why* it failed, not just
    that it did.
    """
    trace = "".join(traceback.format_exception(type(exc), exc,
                                               exc.__traceback__))
    if len(trace) > TRACEBACK_LIMIT_CHARS:
        trace = ("...[truncated]...\n"
                 + trace[-TRACEBACK_LIMIT_CHARS:])
    report = {"type": type(exc).__name__, "message": str(exc),
              "traceback": trace}
    tmp = path + f".tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
        os.replace(tmp, path)
    except OSError:
        # a dying worker must not die harder because the error report
        # could not be written (e.g. the disk is the problem)
        pass
