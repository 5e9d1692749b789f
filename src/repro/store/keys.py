"""Content-addressed keys for the durable result store.

A store entry holds the complete outcome of one campaign *lane*: the
scenario program it ran, the traces it recorded and the metrics it
extracted.  Its key is a pure function of what determines those bits —

* the lane's **starting state** (the per-lane digest of the campaign's
  :class:`~repro.scenarios.executor.LaneSource`: a pickled platform,
  or one platform of a pre-built list);
* the **engine** the campaign resolved (``"reference"`` or
  ``"compiled"`` — equivalence-locked bit-identical, but kept in the key
  so an engine regression can never silently serve another engine's
  traces as its own; the fleet a lane ran in is not part of it,
  because a lane's result does not depend on its fleet);
* the **scenario program** (each scenario's
  :meth:`~repro.scenarios.scenario.Scenario.digest`, in program order —
  which already folds in the environment, timing, stop configuration,
  extractor parameters and the order-insensitive fault set).

The *executor* is deliberately **not** part of the key: executors decide
where lanes run, never what they compute (the sharded/local
bit-identity lock), so a store warmed by a sharded campaign serves an
in-process replay and vice versa.  The executor that produced an entry
is recorded in its metadata for provenance.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

#: Version of the on-disk entry schema.  Bump it when the entry or
#: payload layout changes: entries written under another schema are
#: quarantined on read (treated as misses), never misinterpreted.
STORE_SCHEMA = 4

#: Separator byte that cannot appear in hex digests or engine names.
_SEP = "\x1f"


def lane_key(source_digest: str, engine: str,
             program_digests: Sequence[str]) -> str:
    """The store key of one campaign lane (64-char SHA-256 hex).

    Args:
        source_digest: the lane's entry from
            :meth:`LaneSource.lane_digests` (mode-tagged state digest).
        engine: resolved engine name for the run.
        program_digests: one :meth:`Scenario.digest` per scenario of the
            lane's program, in execution order — order matters here
            (scenario N+1 starts from scenario N's final state), unlike
            the fault set inside one scenario.
    """
    parts = [f"schema={STORE_SCHEMA}", source_digest, engine,
             *program_digests]
    return hashlib.sha256(_SEP.join(parts).encode("utf-8")).hexdigest()


def miss_set_digest(keys: Iterable[str]) -> str:
    """Short digest of a set of lane keys (names miss-set manifest dirs).

    A store-backed campaign reruns only its missing lanes; those
    sub-campaigns get a manifest directory derived from exactly which
    lanes missed, so a crash-resume with the same miss set finds its
    shard files, while a different miss set (some lanes were stored in
    the meantime) gets a fresh, consistent manifest instead of a
    partition mismatch.
    """
    joined = _SEP.join(sorted(keys))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:12]
