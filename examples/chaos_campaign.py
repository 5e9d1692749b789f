"""Chaos matrix: infrastructure failure injection vs the hardened executor.

Runs one campaign uninjected and in-process to fix the baseline (its
lanes run on threads where the C backend and two CPUs allow), then
replays it on the sharded executor under a matrix of deterministic,
seeded infrastructure failures — worker
crashes, worker errors, frozen workers (heartbeat loss), hung
stragglers, torn and
corrupted shard result writes, slow publishes, ENOSPC on manifest
writes, and a kill between the result store's fsync and its atomic
rename.  The acceptance bar for every cell:

* the campaign completes with **zero quarantined shards** (the retry
  budget suffices), and
* every lane's outcomes — traces, metrics and bookkeeping, digested
  with ``content_digest(lane.to_dict())`` — are **bit-identical** to the
  uninjected baseline.

Along the way it demonstrates the hardening mechanics: crashed and
frozen workers are rescheduled off missed heartbeats long before the
shard timeout, a hung straggler is superseded by a speculative backup
that is only credited after digest verification, a worker that raises
reports its error before the shard is retried, and every attempt's
outcome lands in the batch manifest's shard history.

``--ci`` asserts every cell (exit non-zero on any violation) instead of
just narrating — the CI ``chaos`` job runs that mode against a manifest
root it uploads (heartbeat files included) on failure.

Run with:  python examples/chaos_campaign.py [--root runs/chaos] [--ci]
"""

import argparse
import copy
import json
import os
import shutil
import time

from repro.chaos import (
    ChaosPlan,
    CorruptShardPayload,
    Enospc,
    HeartbeatLoss,
    InjectedCrash,
    KillMidRename,
    SlowWrite,
    TornWrite,
    WorkerCrash,
    WorkerError,
    WorkerHang,
)
from repro.platform import GyroPlatform
from repro.platform.result import content_digest
from repro.scenarios import Campaign, CampaignManifest, settled_output_scenario
from repro.store import ResultStore

RATES_DPS = (0.0, 25.0, 50.0)
SHARD_TIMEOUT_S = 120.0

MATRIX = (
    ("worker-crash", ChaosPlan([WorkerCrash(shard=0)])),
    ("worker-error", ChaosPlan([WorkerError(shard=1)])),
    ("heartbeat-loss", ChaosPlan([HeartbeatLoss(shard=1, hang_s=90.0)])),
    ("torn-write", ChaosPlan([TornWrite(shard=2)])),
    ("corrupt-payload", ChaosPlan([CorruptShardPayload(shard=0)])),
    ("slow-write", ChaosPlan([SlowWrite(shard=1, delay_s=1.0)])),
    ("manifest-enospc", ChaosPlan([Enospc(site="manifest.write",
                                          times=2)])),
    ("straggler", ChaosPlan([WorkerHang(shard=2, hang_s=90.0)])),
)


def build_campaign() -> Campaign:
    # three 24,000-sample lanes: enough lane-samples for the in-process
    # baseline round to run on threads (MIN_THREADED_SAMPLES)
    return Campaign([settled_output_scenario(rate, settle_s=0.2)
                     for rate in RATES_DPS], name="chaos-matrix")


def digests(result):
    """Each lane's content digest: its results, not the scenario that
    produced them (``ScenarioOutcome.digest()`` is the latter)."""
    return [None if lane is None else content_digest(lane.to_dict())
            for lane in result.lanes]


def run_cell(campaign, platform, plan, manifest_dir, speculation_factor):
    started = time.monotonic()
    result = campaign.run(
        copy.deepcopy(platform), workers=2, shard_size=1,
        manifest_dir=manifest_dir, chaos=plan,
        shard_timeout_s=SHARD_TIMEOUT_S,
        heartbeat_interval_s=0.1, heartbeat_grace=4.0,
        speculation_factor=speculation_factor)
    return result, time.monotonic() - started


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default="runs/chaos",
                        help="directory for manifests and the store")
    parser.add_argument("--ci", action="store_true",
                        help="assert every cell instead of just narrating")
    args = parser.parse_args()
    if os.path.isdir(args.root):
        shutil.rmtree(args.root)
    os.makedirs(args.root)

    print("Starting the platform and fixing the uninjected baseline...")
    platform = GyroPlatform()
    platform.start()
    campaign = build_campaign()
    baseline = campaign.run(copy.deepcopy(platform))
    expected = digests(baseline)

    summary = {}
    for name, plan in MATRIX:
        manifest_dir = os.path.join(args.root, name)
        # the frozen worker must be unmasked by its missed heartbeats
        # alone: shards of this campaign finish in a few tens of ms, so a
        # speculative backup would otherwise supersede it first
        speculation = None if name == "heartbeat-loss" else 3.0
        result, elapsed = run_cell(campaign, platform, plan, manifest_dir,
                                   speculation)
        identical = digests(result) == expected
        manifest = CampaignManifest.load(manifest_dir)
        attempts = {s.shard_id: s.attempts for s in manifest.shards}
        outcomes = {s.shard_id: [e["outcome"] for e in s.history]
                    for s in manifest.shards}
        print(f"\n[{name}]  {elapsed:.1f} s, "
              f"failed shards: {len(result.failed_shards)}, "
              f"bit-identical: {identical}")
        print(f"  attempts: {attempts}")
        print(f"  history:  {outcomes}")
        summary[name] = {"elapsed_s": round(elapsed, 2),
                         "failed_shards": len(result.failed_shards),
                         "bit_identical": identical,
                         "attempts": attempts}
        if args.ci:
            assert not result.failed_shards, (name, result.failed_shards)
            assert identical, name
            # dead/frozen workers must be rescheduled off heartbeats,
            # nowhere near the 120 s shard timeout
            assert elapsed < SHARD_TIMEOUT_S / 2, (name, elapsed)
            if name == "straggler":
                history = manifest.shards[2].history
                assert any(e["speculative"] and e["outcome"] == "ok"
                           for e in history), history
                assert any(e["outcome"] == "superseded"
                           for e in history), history
            if name == "heartbeat-loss":
                assert "heartbeat-lost" in outcomes[1], outcomes
            if name == "worker-error":
                # the raising worker wrote its error report, then the
                # retry was credited
                assert outcomes[1][0] == "error", outcomes
                assert "ok" in outcomes[1][1:], outcomes

    print("\n[store-kill-mid-rename]  crash between fsync and rename...")
    store = ResultStore(os.path.join(args.root, "store"))
    try:
        campaign.run(copy.deepcopy(platform), store=store,
                     chaos=ChaosPlan([KillMidRename(times=1)]))
        crashed = False
    except InjectedCrash:
        crashed = True
    healed = campaign.run(copy.deepcopy(platform), store=store)
    store_identical = digests(healed) == expected
    print(f"  crashed: {crashed}, healed bit-identical: {store_identical}, "
          f"entries: {len(store)}, quarantined: {len(store.quarantined())}")
    summary["store-kill-mid-rename"] = {"crashed": crashed,
                                        "bit_identical": store_identical}
    if args.ci:
        assert crashed and store_identical
        assert not store.quarantined()

    print(f"\nSummary: {json.dumps(summary)}")
    if args.ci:
        print("CI assertions all passed.")


if __name__ == "__main__":
    main()
