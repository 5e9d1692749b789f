"""The durable, content-addressed campaign result store.

One directory holds one store:

.. code-block:: text

    store_dir/
        store.json              # layout marker: {"schema": 4}
        entries/
            ab/abcdef….json     # one verified entry per lane key
        quarantine/
            abcdef….json.checksum-0
                                # damaged entries, moved aside — never
                                # deleted, so nothing is lost to a bug
                                # in the verifier

Every entry is three newline-terminated lines and a binary tail:

.. code-block:: text

    line 1  header    {"key": …, "schema": 4, "sha256": <hex digest>}
    line 2  metadata  campaign, engine, executor, source_digest,
                      scenarios, created_unix (canonical JSON)
    line 3  payload   the LaneOutcome's ``to_dict(block)`` skeleton
                      (canonical JSON): every trace is a
                      [dtype, offset, count] reference into the trace
                      block, whose byte length is recorded under
                      "trace_block_bytes"
    rest    traces    the trace block: raw little-endian sections
                      (float traces "<f8", bool traces "u1" 0/1)
            config    the raw replay pickle: (program, platform pickle)

The header's ``sha256`` covers every byte after the header line, so one
hash verifies the metadata, the payload, the traces and the replay
config (the ``res.cfg`` round-trip discipline: every stored result
carries enough serialized config to re-derive itself) — a flipped byte
anywhere in the file fails verification.  A read checks the raw bytes
with that one hash before parsing anything, parses only the metadata
and the payload skeleton, wraps each trace section with
``np.frombuffer`` (copied into a writable array) and leaves the replay
config as bytes; only :meth:`ResultStore.audit` unpickles it.

Writes are durable: temp file in the same directory, ``fsync``, atomic
rename, directory ``fsync``.  A crash at any point leaves either the
previous state or the complete new entry — never a readable-but-wrong
file.  Transient write failures (ENOSPC, EIO) are retried under the
store's :class:`~repro.common.retry.RetryPolicy` before surfacing.
Reads verify everything; any mismatch (checksum, schema version, key,
unreadable header) quarantines the entry and reports a miss.
Both failure modes are chaos-tested: :mod:`repro.chaos` injects ENOSPC
and kill-mid-rename at the ``store.write`` / ``store.rename`` sites
fired inside the durable-write path.

:meth:`ResultStore.audit` is the runtime defense built on the engine
equivalence locks: it re-simulates a sample of cached entries from their
own replay config on the reference engine and fails loudly
(:class:`~repro.common.exceptions.StoreIntegrityError`) if any stored
payload drifts from the live re-simulation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import random
import time
from typing import Dict, List, Optional, Tuple

from ..chaos.runtime import fire as _chaos_fire
from ..common.exceptions import StoreError, StoreIntegrityError
from ..common.retry import RetryPolicy
from ..platform.result import canonical_bytes
from ..scenarios.manifest import free_name
from .keys import STORE_SCHEMA

STORE_MARKER = "store.json"
ENTRIES_DIR = "entries"
QUARANTINE_DIR = "quarantine"
#: Payload field holding the byte length of the entry's trace block.
TRACE_BLOCK_BYTES = "trace_block_bytes"


@dataclasses.dataclass
class StoreStats:
    """Running counters of one :class:`ResultStore` instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    quarantined: int = 0
    audited: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class StoreEntry:
    """One verified store entry.

    ``campaign`` through ``created_unix`` are the metadata line;
    ``payload`` is the parsed payload line, ``traces`` the raw trace
    block it refers into and ``config`` the raw replay pickle, left
    undecoded until :meth:`ResultStore.audit`.
    """

    key: str
    path: str
    campaign: str
    engine: str
    executor: str
    source_digest: str
    scenarios: List[dict]
    created_unix: float
    payload: dict
    traces: bytes
    config: bytes

    def lane_outcome(self):
        """The stored lane outcome (``platform=None``; see LaneOutcome)."""
        from ..scenarios.campaign import LaneOutcome
        return LaneOutcome.from_dict(self.payload, self.traces)


@dataclasses.dataclass
class AuditReport:
    """Outcome of one :meth:`ResultStore.audit` pass."""

    checked: int
    verified_keys: List[str]
    quarantined_keys: List[str]

    @property
    def ok(self) -> bool:
        return not self.quarantined_keys


class ResultStore:
    """Content-addressed, integrity-verified campaign result store.

    Args:
        directory: store root; created (with its layout marker) when
            missing.  An existing directory must carry a compatible
            ``store.json`` marker — a different schema version is
            refused rather than misread.
        retry: :class:`~repro.common.retry.RetryPolicy` applied to
            durable writes — transient ``OSError`` failures (ENOSPC
            clearing, EIO) are retried with backoff before surfacing.
            Defaults to three quick attempts.
    """

    def __init__(self, directory: str,
                 retry: Optional[RetryPolicy] = None):
        self.directory = str(directory)
        self.retry = retry or RetryPolicy(max_attempts=3, backoff_s=0.05,
                                          max_backoff_s=1.0)
        self.stats = StoreStats()
        os.makedirs(self.entries_dir, exist_ok=True)
        os.makedirs(self.quarantine_dir, exist_ok=True)
        marker = os.path.join(self.directory, STORE_MARKER)
        if os.path.exists(marker):
            try:
                with open(marker, "r", encoding="utf-8") as fh:
                    schema = json.load(fh).get("schema")
            except (OSError, ValueError) as exc:
                raise StoreError(
                    f"unreadable store marker {marker!r}: {exc}") from exc
            if schema != STORE_SCHEMA:
                raise StoreError(
                    f"store {self.directory!r} uses schema {schema!r}, "
                    f"this code speaks schema {STORE_SCHEMA}")
        else:
            blob = json.dumps({"schema": STORE_SCHEMA}).encode("utf-8")
            self.retry.call(lambda: _durable_write(marker, blob))

    # -- layout -------------------------------------------------------------

    @property
    def entries_dir(self) -> str:
        return os.path.join(self.directory, ENTRIES_DIR)

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.directory, QUARANTINE_DIR)

    def entry_path(self, key: str) -> str:
        return os.path.join(self.entries_dir, key[:2], f"{key}.json")

    def keys(self) -> List[str]:
        """Keys of every entry currently on disk (verified or not)."""
        found = []
        for root, _dirs, files in os.walk(self.entries_dir):
            for name in files:
                if name.endswith(".json"):
                    found.append(name[:-len(".json")])
        return sorted(found)

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.entry_path(key))

    # -- writes -------------------------------------------------------------

    def put(self, key: str, lane, *, config_blob: bytes, campaign: str,
            engine: str, executor: str, source_digest: str) -> str:
        """Durably persist one lane outcome under ``key``.

        Args:
            lane: the :class:`LaneOutcome` to store (:func:`encode_lane`
                gives the payload and the trace block; the platform
                object does not travel).
            config_blob: ``pickle.dumps((program, platform_pickle))``
                captured *before* the lane ran — the replay config the
                equivalence audit re-simulates from.
            campaign, engine, executor, source_digest: provenance
                metadata recorded in the entry's metadata line.

        Returns the entry path.  The write is atomic and fsynced: a
        crash mid-put leaves the store exactly as it was.
        """
        payload, traces = encode_lane(lane)
        metadata = canonical_bytes({
            "campaign": campaign,
            "engine": engine,
            "executor": executor,
            "source_digest": source_digest,
            "scenarios": [{"name": outcome.name, "digest": outcome.digest()}
                          for outcome in lane.outcomes],
            "created_unix": time.time(),
        })
        # canonical JSON escapes every newline, so the two separators
        # below are the only ones before the trace block
        body = b"".join((metadata, b"\n", payload, b"\n", traces,
                         config_blob))
        header = canonical_bytes({"key": key, "schema": STORE_SCHEMA,
                                  "sha256": hashlib.sha256(body).hexdigest()})
        path = self.entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        blob = b"\n".join((header, body))
        self.retry.call(lambda: _durable_write(path, blob))
        self.stats.puts += 1
        return path

    # -- reads --------------------------------------------------------------

    def get(self, key: str):
        """The verified lane outcome stored under ``key``, or ``None``.

        Any integrity failure — an unreadable header, a schema or key
        mismatch, or a checksum mismatch anywhere after the header
        (flipped bytes, truncation) — quarantines the entry and returns
        ``None``: corrupted cache entries degrade to misses, never to
        wrong results.
        """
        entry = self.load_entry(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry.lane_outcome()

    def load_entry(self, key: str) -> Optional[StoreEntry]:
        """Load and fully verify one entry (quarantining failures)."""
        path = self.entry_path(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            return None
        except OSError:
            blob = b""                   # unreadable: quarantined below
        header, _, body = blob.partition(b"\n")
        reason = self._verify(key, header, body)
        if reason is not None:
            self._quarantine(key, reason)
            return None
        metadata, payload, tail = body.split(b"\n", 2)
        payload = json.loads(payload)
        size = payload[TRACE_BLOCK_BYTES]
        return StoreEntry(key=key, path=path, **json.loads(metadata),
                          payload=payload, traces=tail[:size],
                          config=tail[size:])

    @staticmethod
    def _verify(key: str, header: bytes, body: bytes) -> Optional[str]:
        """Reason the entry fails verification, or None when sound."""
        try:
            fields = json.loads(header)
        except ValueError:
            return "unreadable"
        if not isinstance(fields, dict):
            return "unreadable"
        if fields.get("schema") != STORE_SCHEMA:
            return "schema-version"
        if fields.get("key") != key:
            return "key-mismatch"
        if hashlib.sha256(body).hexdigest() != fields.get("sha256"):
            return "checksum"
        return None

    # -- quarantine ---------------------------------------------------------

    def _quarantine(self, key: str, reason: str) -> None:
        """Move a damaged entry aside (never delete) and count it.

        An entry that vanished since it was read was quarantined by
        another store sharing the directory; only the mover counts it.
        """
        path = self.entry_path(key)
        target = free_name(
            os.path.join(self.quarantine_dir,
                         f"{os.path.basename(path)}.{reason}"))
        try:
            os.replace(path, target)
        except FileNotFoundError:
            return
        self.stats.quarantined += 1

    def quarantined(self) -> List[dict]:
        """Quarantined files as ``{"file", "key", "reason"}`` records."""
        records = []
        for name in sorted(os.listdir(self.quarantine_dir)):
            stem = name.split(".json.", 1)
            key = stem[0]
            reason = stem[1].rsplit("-", 1)[0] if len(stem) == 2 else "?"
            records.append({"file": os.path.join(self.quarantine_dir, name),
                            "key": key, "reason": reason})
        return records

    # -- the equivalence audit ----------------------------------------------

    def audit(self, sample: Optional[int] = None, seed: int = 0,
              engine: str = "reference") -> AuditReport:
        """Re-simulate stored entries and fail loudly on drift.

        A random ``sample`` of entries (all of them when ``sample`` is
        None) is replayed from each entry's own pickled config — the
        scenario program and the lane's starting state — on ``engine``
        (the reference chain by default).  The fresh lane's encoding —
        payload line and trace block — must equal the stored one bit for
        bit; the engine equivalence locks promise exactly that, so any
        difference means the store, the serialisation or an engine has
        broken, and the audit raises
        :class:`StoreIntegrityError` after quarantining the drifted
        entry.  Entries that fail verification or whose config no longer
        unpickles are quarantined and reported (not drift).

        Returns an :class:`AuditReport`; raises on drift.
        """
        from ..scenarios.campaign import _execute_lanes
        keys = self.keys()
        if sample is not None and sample < len(keys):
            keys = sorted(random.Random(seed).sample(keys, sample))
        verified: List[str] = []
        quarantined: List[str] = []
        drifted: List[str] = []
        for key in keys:
            entry = self.load_entry(key)
            if entry is None:            # quarantined by load_entry
                quarantined.append(key)
                continue
            try:
                program, state = pickle.loads(entry.config)
                fresh = _execute_lanes([program], [pickle.loads(state)],
                                       engine)[0]
            except Exception:
                self._quarantine(key, "replay-failed")
                quarantined.append(key)
                self.stats.audited += 1
                continue
            self.stats.audited += 1
            if encode_lane(fresh) != (canonical_bytes(entry.payload),
                                      entry.traces):
                self._quarantine(key, "drift")
                drifted.append(key)
            else:
                verified.append(key)
        if drifted:
            raise StoreIntegrityError(
                f"{len(drifted)} stored entr"
                f"{'y' if len(drifted) == 1 else 'ies'} drifted from live "
                f"re-simulation on the {engine!r} engine: "
                f"{', '.join(k[:16] for k in drifted)} — the drifted "
                f"entries were quarantined under {self.quarantine_dir!r}")
        return AuditReport(checked=len(keys), verified_keys=verified,
                           quarantined_keys=quarantined)


def encode_lane(lane) -> Tuple[bytes, bytes]:
    """A lane outcome's ``(payload line, trace block)`` (schema 5).

    The payload is the canonical JSON of ``lane.to_dict(block)`` plus the
    block's byte length; the same lane always encodes to the same bytes,
    and ``LaneOutcome.from_dict(json.loads(payload), block)`` decodes it.
    """
    block = bytearray()
    payload = lane.to_dict(block)
    payload[TRACE_BLOCK_BYTES] = len(block)
    return canonical_bytes(payload), bytes(block)


def _durable_write(path: str, blob: bytes) -> None:
    """Temp file + fsync + atomic rename + directory fsync.

    The rename publishes the entry atomically; the two fsyncs make it
    durable — a crash (or kill) at any instant leaves either no entry or
    the complete, verifiable entry.  The temp name includes the PID so
    concurrent writers never collide; a stray ``.tmp-*`` from a killed
    writer is ignored by every reader.

    Chaos sites: ``store.write`` fires before anything touches disk
    (transient ENOSPC injection lands here) and ``store.rename`` fires
    in the vulnerable window between the fsync and the atomic rename
    (kill-mid-rename injection) — the promise under chaos test is that
    neither can ever leave a readable-but-wrong file.
    """
    _chaos_fire("store.write", path=path)
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    _chaos_fire("store.rename", path=path)
    os.replace(tmp, path)
    try:
        dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    except OSError:                       # platform without dir-open
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
