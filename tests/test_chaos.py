"""Tests for chaos-hardened execution (``repro.chaos`` + the scheduler).

The acceptance bar mirrors the engine-equivalence locks: a campaign run
under any supported infrastructure failure — worker crashes, hangs,
heartbeat loss, torn/corrupted/slow result writes, ENOSPC on manifest
writes — must complete with results *bit-identical* to an uninjected
local run, with zero quarantined shards whenever the retry budget
suffices.  These tests also pin the hardening mechanics themselves:
crashed workers reschedule immediately off missed heartbeats (no
backoff, no waiting out the shard timeout), stragglers get speculative
backups that are only credited after digest verification, retry
backoffs respect the deadline budget, and every attempt's outcome
(failure class and truncated traceback included) lands in the batch
manifest's shard history.
"""

import copy
import errno
import os
import pickle
import time

import pytest

from repro.chaos import (
    ChaosEvent,
    ChaosPlan,
    CorruptShardPayload,
    Enospc,
    HeartbeatLoss,
    InjectedCrash,
    KillMidRename,
    SlowWrite,
    TornWrite,
    WorkerCrash,
    WorkerHang,
)
from repro.chaos import runtime as chaos_runtime
from repro.common import ConfigurationError
from repro.common.retry import RetryPolicy
from repro.platform import GyroPlatform
from repro.scenarios import Campaign, CampaignManifest, settled_output_scenario
from repro.scenarios.manifest import (
    ATTEMPT_CRASH,
    ATTEMPT_HEARTBEAT_LOST,
    ATTEMPT_OK,
    ATTEMPT_SUPERSEDED,
    write_error_report,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def started_platform():
    platform = GyroPlatform()
    platform.start()
    return platform


@pytest.fixture(scope="module")
def two_lane_campaign():
    return Campaign([settled_output_scenario(0.0, settle_s=0.01),
                     settled_output_scenario(5.0, settle_s=0.01)],
                    name="chaos-two-lane")


@pytest.fixture(scope="module")
def baseline(two_lane_campaign, started_platform):
    return two_lane_campaign.run(copy.deepcopy(started_platform))


def assert_identical(expected, actual):
    assert len(expected.lanes) == len(actual.lanes)
    for lane_a, lane_b in zip(expected.lanes, actual.lanes):
        for oa, ob in zip(lane_a.outcomes, lane_b.outcomes):
            assert oa.metrics == ob.metrics
            assert oa.digest() == ob.digest()


def run_chaos(campaign, platform, plan, tmp_path=None, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("heartbeat_interval_s", 0.1)
    kwargs.setdefault("heartbeat_grace", 4.0)
    if tmp_path is not None:
        kwargs.setdefault("manifest_dir", str(tmp_path))
    return campaign.run(copy.deepcopy(platform), chaos=plan, **kwargs)


# ---------------------------------------------------------------------------
# the retry policy
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_s=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(deadline_s=-1)

    def test_delay_progression_and_cap(self):
        policy = RetryPolicy(backoff_s=1.0, backoff_factor=2.0,
                             max_backoff_s=5.0)
        assert [policy.delay_for(n) for n in (1, 2, 3, 4)] == \
            [1.0, 2.0, 4.0, 5.0]
        assert RetryPolicy(backoff_s=0.0).delay_for(3) == 0.0
        with pytest.raises(ConfigurationError):
            policy.delay_for(0)

    def test_dict_round_trip(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.1, deadline_s=9.0)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy

    def test_call_retries_transient_failure(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError(errno.ENOSPC, "full")
            return "done"

        policy = RetryPolicy(max_attempts=3, backoff_s=0.0)
        assert policy.call(flaky) == "done"
        assert len(calls) == 3

    def test_call_exhausts_and_reraises(self):
        def always():
            raise OSError(errno.EIO, "bad disk")

        with pytest.raises(OSError, match="bad disk"):
            RetryPolicy(max_attempts=2).call(always)

    def test_call_non_retryable_propagates_immediately(self):
        calls = []

        def boom():
            calls.append(1)
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=5).call(boom)
        assert len(calls) == 1

    def test_call_caps_sleep_by_deadline(self):
        sleeps = []
        clock = [0.0]

        def monotonic():
            return clock[0]

        def sleep(s):
            sleeps.append(s)
            clock[0] += s

        def always():
            clock[0] += 0.3
            raise OSError("transient")

        policy = RetryPolicy(max_attempts=10, backoff_s=5.0, deadline_s=1.0)
        with pytest.raises(OSError):
            policy.call(always, sleep=sleep, monotonic=monotonic)
        # each sleep was capped by the remaining budget, never 5 s
        assert sleeps and all(s <= 1.0 for s in sleeps)


# ---------------------------------------------------------------------------
# chaos models and runtime (no simulation)
# ---------------------------------------------------------------------------

class TestChaosModels:
    def test_plan_rejects_non_models(self):
        with pytest.raises(ConfigurationError, match="not a chaos model"):
            ChaosPlan([object()])

    def test_trigger_matching(self):
        model = Enospc(site="store.write", shard=2, attempt=1)
        assert model.matches(ChaosEvent("store.write", shard=2, attempt=1))
        assert not model.matches(ChaosEvent("store.write", shard=1,
                                            attempt=1))
        assert not model.matches(ChaosEvent("store.write", shard=2,
                                            attempt=2))
        assert not model.matches(ChaosEvent("store.rename", shard=2,
                                            attempt=1))

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            WorkerCrash(probability=1.5)
        with pytest.raises(ConfigurationError):
            WorkerCrash(times=0)

    def test_plan_is_picklable_and_digestible(self):
        plan = ChaosPlan([WorkerCrash(shard=0), Enospc(times=2)], seed=7)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert "seed=7" in plan.digest_token()
        assert "WorkerCrash" in plan.digest_token()

    def test_times_budget_bounds_firings(self):
        plan = ChaosPlan([Enospc(site="store.write", times=2)])
        fired = 0
        with chaos_runtime.active(plan):
            for _ in range(5):
                try:
                    chaos_runtime.fire("store.write")
                except OSError:
                    fired += 1
        assert fired == 2

    def test_fire_without_plan_is_noop(self):
        chaos_runtime.fire("store.write")     # must not raise

    def test_active_none_is_noop(self):
        with chaos_runtime.active(None):
            assert chaos_runtime.current() is None

    def test_nested_activation_innermost_wins(self):
        outer = ChaosPlan([Enospc(site="store.write")])
        inner = ChaosPlan([])                 # nothing armed
        with chaos_runtime.active(outer):
            with chaos_runtime.active(inner):
                chaos_runtime.fire("store.write")   # inner: no firing
            with pytest.raises(OSError):
                chaos_runtime.fire("store.write")   # outer again

    def test_probability_draws_are_seed_deterministic(self):
        def schedule(seed):
            plan = ChaosPlan([Enospc(site="store.write", probability=0.5)],
                             seed=seed)
            outcomes = []
            with chaos_runtime.active(plan):
                for n in range(32):
                    try:
                        chaos_runtime.fire("store.write", shard=n)
                        outcomes.append(0)
                    except OSError:
                        outcomes.append(1)
            return outcomes

        first = schedule(3)
        assert first == schedule(3)           # same seed, same schedule
        assert 0 < sum(first) < 32            # actually probabilistic
        assert first != schedule(4)           # another seed, another one

    def test_error_report_truncates_traceback(self, tmp_path):
        path = str(tmp_path / "err.json")
        try:
            raise RuntimeError("x" * 10)
        except RuntimeError as exc:
            write_error_report(path, exc)
        import json
        with open(path) as fh:
            report = json.load(fh)
        assert report["type"] == "RuntimeError"
        assert len(report["traceback"]) <= 2000


# ---------------------------------------------------------------------------
# chaos-hardened sharded execution (the acceptance matrix)
# ---------------------------------------------------------------------------

class TestChaosExecution:
    def test_worker_crash_rescheduled_bit_identical(
            self, two_lane_campaign, started_platform, baseline, tmp_path):
        started = time.monotonic()
        result = run_chaos(two_lane_campaign, started_platform,
                           ChaosPlan([WorkerCrash(shard=0)]), tmp_path,
                           shard_timeout_s=120.0)
        elapsed = time.monotonic() - started
        assert not result.failed_shards
        assert_identical(baseline, result)
        manifest = CampaignManifest.load(str(tmp_path))
        outcomes = [e["outcome"] for e in manifest.shards[0].history]
        assert outcomes == [ATTEMPT_CRASH, ATTEMPT_OK]
        # the crash was noticed and rescheduled off the dead process /
        # stale heartbeat — nowhere near the 120 s shard timeout
        assert elapsed < 60.0
        assert manifest.shards[0].attempts == 2
        assert manifest.shards[1].attempts == 1

    def test_heartbeat_loss_detected_before_shard_timeout(
            self, two_lane_campaign, started_platform, baseline, tmp_path):
        # the worker freezes (alive by is_alive(), heartbeat silenced):
        # only heartbeat staleness can unmask it before the 120 s budget
        started = time.monotonic()
        result = run_chaos(two_lane_campaign, started_platform,
                           ChaosPlan([HeartbeatLoss(shard=0, hang_s=90.0)]),
                           tmp_path, shard_timeout_s=120.0)
        elapsed = time.monotonic() - started
        assert not result.failed_shards
        assert_identical(baseline, result)
        manifest = CampaignManifest.load(str(tmp_path))
        outcomes = [e["outcome"] for e in manifest.shards[0].history]
        assert outcomes == [ATTEMPT_HEARTBEAT_LOST, ATTEMPT_OK]
        assert elapsed < 60.0
        assert manifest.shards[0].error is None   # healed on credit

    def test_torn_write_never_reads_partial_payload(
            self, two_lane_campaign, started_platform, baseline, tmp_path):
        result = run_chaos(two_lane_campaign, started_platform,
                           ChaosPlan([TornWrite(shard=1)]), tmp_path)
        assert not result.failed_shards
        assert_identical(baseline, result)

    def test_corrupt_payload_fails_verification_and_retries(
            self, two_lane_campaign, started_platform, baseline, tmp_path):
        result = run_chaos(two_lane_campaign, started_platform,
                           ChaosPlan([CorruptShardPayload(shard=0)]),
                           tmp_path)
        assert not result.failed_shards
        assert_identical(baseline, result)
        manifest = CampaignManifest.load(str(tmp_path))
        assert manifest.shards[0].history[0]["outcome"] == "verify-failed"

    def test_slow_write_is_waited_out(
            self, two_lane_campaign, started_platform, baseline, tmp_path):
        result = run_chaos(two_lane_campaign, started_platform,
                           ChaosPlan([SlowWrite(shard=0, delay_s=1.0)]),
                           tmp_path)
        assert not result.failed_shards
        assert_identical(baseline, result)
        manifest = CampaignManifest.load(str(tmp_path))
        # slow, not dead: one attempt sufficed
        assert manifest.shards[0].attempts == 1

    def test_manifest_enospc_rides_retry_policy(
            self, two_lane_campaign, started_platform, baseline, tmp_path):
        result = run_chaos(two_lane_campaign, started_platform,
                           ChaosPlan([Enospc(site="manifest.write",
                                             times=2)]), tmp_path)
        assert not result.failed_shards
        assert_identical(baseline, result)

    def test_straggler_gets_verified_speculative_backup(
            self, started_platform, tmp_path):
        camp = Campaign([settled_output_scenario(0.0, settle_s=0.01),
                         settled_output_scenario(2.0, settle_s=0.01),
                         settled_output_scenario(5.0, settle_s=0.01)],
                        name="chaos-straggler")
        expected = camp.run(copy.deepcopy(started_platform))
        started = time.monotonic()
        result = run_chaos(camp, started_platform,
                           ChaosPlan([WorkerHang(shard=2, hang_s=90.0)]),
                           tmp_path, shard_size=1, speculation_factor=3.0)
        elapsed = time.monotonic() - started
        assert not result.failed_shards
        assert_identical(expected, result)
        manifest = CampaignManifest.load(str(tmp_path))
        history = manifest.shards[2].history
        # the hung primary was superseded by the speculative backup,
        # which was credited only after digest verification
        assert [(e["speculative"], e["outcome"]) for e in history] == \
            [(False, ATTEMPT_SUPERSEDED), (True, ATTEMPT_OK)]
        assert elapsed < 60.0

    def test_persistent_crash_quarantines_with_history(
            self, two_lane_campaign, started_platform, baseline, tmp_path):
        # crash on every attempt: the shard exhausts its budget and is
        # quarantined with a full per-attempt history — then a chaos-free
        # resume heals it bit-identically
        started = time.monotonic()
        result = run_chaos(
            two_lane_campaign, started_platform,
            ChaosPlan([WorkerCrash(shard=1, attempt=None)]), tmp_path,
            retry=RetryPolicy(max_attempts=3, backoff_s=30.0))
        elapsed = time.monotonic() - started
        assert not result.complete
        assert len(result.failed_shards) == 1
        report = result.failed_shards[0]
        assert report["shard_id"] == 1
        assert report["attempts"] == 3
        assert [e["outcome"] for e in report["history"]] == \
            [ATTEMPT_CRASH] * 3
        assert result.lanes[1] is None
        # known-dead reschedules skip the 30 s backoff entirely
        assert elapsed < 30.0

        resumed = two_lane_campaign.run(copy.deepcopy(started_platform),
                                        workers=2,
                                        manifest_dir=str(tmp_path))
        assert resumed.complete
        assert_identical(baseline, resumed)

    def test_failure_reason_recorded_in_history(
            self, two_lane_campaign, started_platform, tmp_path):
        result = two_lane_campaign.run(
            copy.deepcopy(started_platform), workers=2,
            manifest_dir=str(tmp_path), retry=RetryPolicy(max_attempts=1),
            fault_hook=_FailShard(0))
        assert len(result.failed_shards) == 1
        entry = result.failed_shards[0]["history"][0]
        assert entry["outcome"] == "error"
        assert entry["error"]["type"] == "RuntimeError"
        assert "injected shard fault" in entry["error"]["message"]
        assert "RuntimeError" in entry["error"]["traceback"]
        manifest = CampaignManifest.load(str(tmp_path))
        assert manifest.shards[0].history[0]["error"]["type"] == \
            "RuntimeError"

    def test_deadline_budget_quarantines_instead_of_sleeping(
            self, two_lane_campaign, started_platform, tmp_path):
        started = time.monotonic()
        result = two_lane_campaign.run(
            copy.deepcopy(started_platform), workers=2,
            manifest_dir=str(tmp_path), fault_hook=_FailShard(0),
            retry=RetryPolicy(max_attempts=10, backoff_s=60.0,
                              deadline_s=2.0))
        elapsed = time.monotonic() - started
        assert len(result.failed_shards) == 1
        assert "deadline budget" in result.failed_shards[0]["error"]
        # never slept out the 60 s backoff: the deadline capped it
        assert elapsed < 30.0

    def test_chaos_plan_must_be_picklable(self, two_lane_campaign,
                                          started_platform):
        with pytest.raises(ConfigurationError, match="picklable"):
            two_lane_campaign.run(copy.deepcopy(started_platform),
                                  workers=2, chaos=lambda: None)

    def test_heartbeat_files_published(self, two_lane_campaign,
                                       started_platform, tmp_path):
        run_chaos(two_lane_campaign, started_platform, None, tmp_path)
        heartbeat_dir = os.path.join(str(tmp_path), "heartbeats")
        beats = os.listdir(heartbeat_dir)
        assert len(beats) == 2
        import json
        with open(os.path.join(heartbeat_dir, sorted(beats)[0])) as fh:
            beat = json.load(fh)
        assert beat["shard_id"] == 0
        assert beat["sequence"] >= 1
        assert beat["pid"] != os.getpid()


class _FailShard:
    """Picklable fault hook failing one shard on every attempt."""

    def __init__(self, shard_id):
        self.shard_id = shard_id

    def __call__(self, shard_id, attempt):
        if shard_id == self.shard_id:
            raise RuntimeError(
                f"injected shard fault (shard {shard_id}, "
                f"attempt {attempt})")


# ---------------------------------------------------------------------------
# kill-and-resume under chaos (self-healing bit-identity)
# ---------------------------------------------------------------------------

class TestChaosResume:
    def test_salvaged_attempt_file_credits_without_resimulation(
            self, two_lane_campaign, started_platform, baseline, tmp_path):
        # simulate a run killed between a worker's publish and the
        # parent's promotion: the attempt file survives; the resume scan
        # must credit it rather than re-simulate
        first = run_chaos(two_lane_campaign, started_platform, None,
                          tmp_path)
        assert first.complete
        manifest = CampaignManifest.load(str(tmp_path))
        shard = manifest.shards[0]
        os.replace(manifest.shard_result_path(0),
                   manifest.attempt_result_path(0, 1))
        shard.status = "pending"
        shard.error = None
        manifest.write()

        resumed = two_lane_campaign.run(copy.deepcopy(started_platform),
                                        workers=2,
                                        manifest_dir=str(tmp_path))
        assert resumed.complete
        assert_identical(baseline, resumed)
        healed = CampaignManifest.load(str(tmp_path))
        # salvage credited the surviving attempt file: no new attempt ran
        assert healed.shards[0].attempts == shard.attempts
        assert os.path.exists(healed.shard_result_path(0))
