"""Store-backed campaign execution: hits served, misses scheduled.

This is the serving layer of the ROADMAP's "replayable result store":
``Campaign.run(store=...)`` asks the store for every lane first, runs a
sub-campaign over only the missing (or quarantined) lanes on the
requested executor, durably stores the fresh outcomes, and merges
everything back into one :class:`CampaignResult` in original lane order.

Self-healing resume, end to end:

* **crash mid-shard** — the sub-campaign's shard manifest (placed in a
  ``miss-<digest>`` subdirectory of ``manifest_dir``, named after
  exactly which lanes missed) resumes unfinished shards only;
* **crash mid-write** — a half-written entry is impossible (atomic
  rename) and a half-written temp file is invisible to readers;
* **crash mid-merge** — lanes already stored are hits on the next run,
  the rest form a new miss set with its own manifest directory;
* **corrupted entry** — quarantined on read, treated as a miss,
  transparently re-simulated to a bit-identical result.

Because the campaign chunking is packing-invariant and the engines and
executors are equivalence-locked, a lane served from the store is bit
identical to a lane simulated fresh — the merge order never matters.
Missing lanes come from the lane source like any campaign's lanes
(one shared pickle of a ``platform=`` base, or the caller's
``platforms=``), so store keys, stored entries and results are the same
whichever lanes happened to miss.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
from typing import List, Optional

from .keys import lane_key, miss_set_digest
from .store import ResultStore


def run_with_store(campaign, source, engine: str, executor_name: str,
                   options, store: ResultStore):
    """Execute a campaign against a result store (see module docstring).

    Called by ``Campaign.run`` after it has resolved the engine, the
    executor and the lane source; returns the merged
    :class:`CampaignResult`.  Lanes served from the store carry
    ``platform=None`` (the store persists traces and metrics, not live
    simulator objects); lanes that simulated fresh keep their platforms.
    """
    from ..scenarios.campaign import Campaign, CampaignResult
    from ..scenarios.executor import get_executor

    programs = campaign.programs
    n_lanes = len(programs)
    source_digests = source.lane_digests(n_lanes)
    keys = [lane_key(source_digests[i], engine,
                     [s.digest() for s in programs[i]])
            for i in range(n_lanes)]
    lanes: List[Optional[object]] = [store.get(key) for key in keys]
    missing = [i for i, lane in enumerate(lanes) if lane is None]
    failed_shards: List[dict] = []
    if missing:
        # capture each missing lane's replay config *before* running:
        # in "platforms" mode the local executor advances the supplied
        # platforms in place, and the stored config must be the state
        # the lane STARTED from, or the audit would replay the wrong run
        config_blobs = {
            i: pickle.dumps((programs[i], source.starting_state(i)),
                            protocol=pickle.HIGHEST_PROTOCOL)
            for i in missing}
        sub_campaign = Campaign([programs[i] for i in missing],
                                name=campaign.name)
        sub_source = source.subset(missing)
        sub_options = options
        if options.manifest_dir is not None:
            tag = miss_set_digest(keys[i] for i in missing)
            sub_options = dataclasses.replace(
                options,
                manifest_dir=os.path.join(str(options.manifest_dir),
                                          f"miss-{tag}"))
        result = get_executor(executor_name).runner(
            sub_campaign, sub_source, engine, sub_options)
        for position, index in enumerate(missing):
            lane = result.lanes[position]
            if lane is None:         # quarantined shard: stays missing
                continue
            store.put(keys[index], lane,
                      config_blob=config_blobs[index],
                      campaign=campaign.name, engine=engine,
                      executor=executor_name,
                      source_digest=source_digests[index])
            lanes[index] = lane
        # map the sub-campaign's failure report back onto original lanes
        failed_shards = [
            dict(shard,
                 lane_indices=[missing[j] for j in shard["lane_indices"]])
            for shard in result.failed_shards]
    return CampaignResult(lanes, failed_shards=failed_shards)
