"""Durable result store: campaigns as content-addressed artifacts.

The serving layer for repeated characterisations, sweeps and CI runs: a
:class:`ResultStore` keys every campaign lane on *what determines its
bits* — starting platform state, engine, scenario program digests — and
persists the outcome durably (fsync + atomic rename), sealed by one
SHA-256 over the entry's raw bytes.  ``Campaign.run(store=...)``
serves hits instantly, simulates only missing or quarantined lanes, and
merges fresh results back bit-identically;
:meth:`ResultStore.audit` re-simulates a sample of cached entries on the
reference engine and fails loudly on drift.

Quick use::

    from repro.store import ResultStore
    store = ResultStore("results/")
    result = campaign.run(platform, store=store)   # cold: simulates + stores
    result = campaign.run(platform, store=store)   # warm: zero simulation
    store.audit(sample=5)                          # spot-check integrity
"""

from ..common.exceptions import StoreError, StoreIntegrityError
from .keys import STORE_SCHEMA, lane_key, miss_set_digest
from .store import (
    AuditReport,
    ResultStore,
    StoreEntry,
    StoreStats,
)

__all__ = [
    "STORE_SCHEMA",
    "AuditReport",
    "ResultStore",
    "StoreEntry",
    "StoreError",
    "StoreIntegrityError",
    "StoreStats",
    "lane_key",
    "miss_set_digest",
]
