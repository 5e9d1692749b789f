"""Result store walkthrough: campaigns as durable, self-healing artifacts.

Runs the same characterisation campaign against a content-addressed
:class:`repro.store.ResultStore` three times:

1. **cold** — every lane misses, simulates and is durably stored
   (fsync + atomic rename, one checksum over the entry);
2. **warm** — every lane is served from the store with zero fleet
   simulation, bit-identical to the cold run;
3. **healed** — one stored entry is deliberately corrupted (a flipped
   byte) first; the read quarantines it (moved aside, never deleted)
   and the campaign transparently re-simulates just that lane back to a
   bit-identical result.

It closes with the equivalence audit: every cached entry is re-simulated
from its own stored replay config on the reference engine and must match
its recorded checksum bit for bit.

``--ci`` asserts every step (exit non-zero on any violation) instead of
just narrating — the CI ``store`` job runs that mode against a store
directory it uploads on failure, then runs it again in a new process on
the same directory.  A store that already holds the campaign must serve
the cold run entirely (hits, no puts): a lane key that changes between
processes — a platform that does not pickle deterministically — would
still re-simulate correctly, so only this check notices it.

Run with:  python examples/result_store.py [--store runs/result_store]
           [--ci]
"""

import argparse
import json
import os
import shutil

import numpy as np

from repro.platform import GyroPlatform
from repro.scenarios import Campaign, rate_table_scenarios
from repro.store import ResultStore

RATES_DPS = (-100.0, 0.0, 100.0)


def build_platform() -> GyroPlatform:
    print("Starting and calibrating the platform...")
    platform = GyroPlatform()
    platform.start()
    platform.calibrate(settle_s=0.1)
    return platform


def run_campaign(platform, store):
    campaign = Campaign(rate_table_scenarios(RATES_DPS, settle_s=0.05),
                        name="store-example")
    return campaign.run(platform, store=store)


def outputs(result) -> np.ndarray:
    return np.array([outcome.metrics["rate_output_dps"]
                     for outcome in result.outcomes()])


def corrupt_one_entry(store) -> str:
    key = store.keys()[0]
    path = store.entry_path(key)
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[len(blob) // 2] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    return key


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", default="runs/result_store",
                        help="store directory (default: runs/result_store)")
    parser.add_argument("--ci", action="store_true",
                        help="assert every step (CI mode)")
    parser.add_argument("--fresh", action="store_true",
                        help="delete the store directory first")
    args = parser.parse_args()

    if args.fresh and os.path.isdir(args.store):
        shutil.rmtree(args.store)
    store = ResultStore(args.store)
    stored = len(store)
    platform = build_platform()

    print(f"\nCold run (store: {args.store}, {stored} entries)...")
    cold = run_campaign(platform, store)
    cold_out = outputs(cold)
    print(f"  stats: {store.stats.as_dict()}")
    print(f"  outputs: {np.array2string(cold_out, precision=3)}")
    if args.ci and stored:
        # an earlier process stored this campaign: every lane must hit
        assert store.stats.hits == len(RATES_DPS), store.stats
        assert store.stats.puts == 0, store.stats
    elif args.ci:
        assert store.stats.puts == len(RATES_DPS), store.stats

    print("\nWarm run (every lane served, zero fleet simulation)...")
    hits_before = store.stats.hits
    warm = run_campaign(platform, store)
    print(f"  stats: {store.stats.as_dict()}")
    warm_hits = store.stats.hits - hits_before
    print(f"  hits: {warm_hits}/{len(RATES_DPS)}, "
          f"bit-identical: {np.array_equal(outputs(warm), cold_out)}")
    if args.ci:
        assert warm_hits == len(RATES_DPS), store.stats
        assert np.array_equal(outputs(warm), cold_out)

    print("\nFlipping one byte in a stored entry...")
    earlier = {q["file"] for q in store.quarantined()}
    key = corrupt_one_entry(store)
    print(f"  corrupted {key[:16]}...")
    healed = run_campaign(platform, store)
    quarantined = [q for q in store.quarantined() if q["file"] not in earlier]
    print(f"  quarantined: {[q['reason'] for q in quarantined]}")
    print(f"  re-simulated bit-identical: "
          f"{np.array_equal(outputs(healed), cold_out)}")
    if args.ci:
        assert len(quarantined) == 1 and quarantined[0]["key"] == key
        assert np.array_equal(outputs(healed), cold_out)
        assert store.stats.quarantined == 1

    print("\nEquivalence audit (re-simulate every cached entry)...")
    report = store.audit()
    print(f"  checked {report.checked}, "
          f"verified {len(report.verified_keys)}, ok: {report.ok}")
    if args.ci:
        assert report.ok and report.checked == len(RATES_DPS)

    summary = {"stats": store.stats.as_dict(),
               "entries": len(store),
               "quarantined": [q["reason"] for q in store.quarantined()],
               "audit_checked": report.checked,
               "audit_ok": report.ok}
    print(f"\nSummary: {json.dumps(summary)}")
    if args.ci:
        print("CI assertions all passed.")


if __name__ == "__main__":
    main()
