"""Tests for the campaign executor layer (``repro.scenarios.executor``).

The sharded executor promises that fanning a campaign's lanes out over
worker processes changes *where* the simulation runs and nothing else:
the assembled :class:`CampaignResult` — traces, metrics, programmed
calibration words and the behaviour of the returned lane platforms — is
bit-identical to the in-process local executor.  These tests hold it to
that, exercise the batch manifest's verify-and-retry / resume machinery
with injected faults, and cover the executor registry and the result
serialisation round-trips the shard files rely on.
"""

import copy
import json
import math
import os
import pickle

import numpy as np
import pytest

from repro.chaos import ChaosPlan, WorkerError
from repro.common import ConfigurationError, RetryPolicy, SimulationError
from repro.engine import compiled
from repro.platform import GyroPlatform, GyroPlatformConfig
from repro.platform.result import content_digest
from repro.faults import AfeSaturation, StuckAdcCode
from repro.scenarios import (
    Campaign,
    CampaignManifest,
    CampaignResult,
    ManifestCorruptionError,
    Scenario,
    ShardRecord,
    executor_names,
    fault_scenario,
    get_executor,
    rate_table_scenarios,
    register_executor,
    settled_output_scenario,
    startup_complete,
    startup_scenario,
    validate_executor,
)
from repro.scenarios.executor import ExecutorOptions, ExecutorSpec, LaneSource
from repro.scenarios.manifest import (
    SHARD_DONE,
    SHARD_FAILED,
    write_shard_payload,
)
from repro.sensors import Environment

TRACE_FIELDS = (
    "time_s", "true_rate_dps", "temperature_c", "rate_output_dps",
    "rate_output_v", "amplitude_control", "amplitude_error", "phase_error",
    "vco_control", "pll_locked", "running")


def assert_outcomes_identical(a, b):
    """Bit-identical traces, metrics and bookkeeping for two outcomes."""
    assert a.metrics == b.metrics
    assert a.stopped_early == b.stopped_early
    assert a.elapsed_s == b.elapsed_s
    for field in TRACE_FIELDS:
        assert np.array_equal(getattr(a.result, field),
                              getattr(b.result, field)), field


def assert_campaigns_identical(a: CampaignResult, b: CampaignResult):
    assert len(a.lanes) == len(b.lanes)
    for lane_a, lane_b in zip(a.lanes, b.lanes):
        assert len(lane_a.outcomes) == len(lane_b.outcomes)
        for oa, ob in zip(lane_a.outcomes, lane_b.outcomes):
            assert_outcomes_identical(oa, ob)


@pytest.fixture(scope="module")
def started_platform():
    platform = GyroPlatform()
    platform.start()
    return platform


# ---------------------------------------------------------------------------
# executor registry
# ---------------------------------------------------------------------------

class TestExecutorRegistry:
    def test_builtin_executors_registered(self):
        assert set(executor_names()) >= {"local", "sharded"}

    def test_get_executor_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            get_executor("cluster")

    def test_validate_executor_passthrough(self):
        assert validate_executor("local") == "local"
        with pytest.raises(ConfigurationError):
            validate_executor("nope")

    def test_duplicate_registration_rejected(self):
        spec = get_executor("local")
        with pytest.raises(ConfigurationError, match="already registered"):
            register_executor(ExecutorSpec("local", runner=spec.runner))

    def test_campaign_run_rejects_unknown_executor(self, started_platform):
        camp = Campaign([settled_output_scenario(0.0, settle_s=0.01)])
        with pytest.raises(ConfigurationError, match="unknown executor"):
            camp.run(copy.deepcopy(started_platform), executor="cluster")

    def test_local_executor_rejects_workers(self, started_platform):
        camp = Campaign([settled_output_scenario(0.0, settle_s=0.01)])
        with pytest.raises(ConfigurationError, match="in-process"):
            camp.run(copy.deepcopy(started_platform), executor="local",
                     workers=2)


#: one executor number out of its range per case
BAD_OPTIONS = [
    {"workers": 0}, {"workers": -2}, {"workers": 2.5}, {"workers": True},
    {"shard_size": 0}, {"shard_size": 2.5},
    {"shard_timeout_s": 0.0}, {"shard_timeout_s": -1.0},
    {"shard_timeout_s": math.nan}, {"shard_timeout_s": math.inf},
    {"heartbeat_interval_s": 0.0}, {"heartbeat_interval_s": -0.5},
    {"heartbeat_interval_s": math.nan}, {"heartbeat_interval_s": None},
    {"heartbeat_grace": math.nan}, {"heartbeat_grace": 1.0},
    {"heartbeat_grace": math.inf},
    {"speculation_factor": 1.0}, {"speculation_factor": math.nan},
    {"speculation_factor": "4"},
]


class TestExecutorOptions:
    @pytest.mark.parametrize("bad", BAD_OPTIONS, ids=repr)
    def test_bad_numbers_raise_before_any_work(self, started_platform,
                                               tmp_path, bad):
        camp = Campaign(rate_table_scenarios([0.0, 40.0], settle_s=0.01))
        manifest_dir = tmp_path / "manifest"
        (name, _), = bad.items()
        with pytest.raises(ConfigurationError, match=name):
            camp.run(started_platform, executor="sharded",
                     manifest_dir=str(manifest_dir), chaos=FAIL_ALWAYS,
                     **bad)
        assert not manifest_dir.exists()

    def test_numbers_in_range_are_kept(self):
        options = ExecutorOptions(workers=np.int64(2), shard_size=1,
                                  shard_timeout_s=5, heartbeat_grace=1.5,
                                  speculation_factor=None)
        assert options.workers == 2 and options.shard_timeout_s == 5


# ---------------------------------------------------------------------------
# batch manifest (pure unit tests, no simulation)
# ---------------------------------------------------------------------------

def make_shards():
    return [ShardRecord(shard_id=0, lane_indices=[0, 1],
                        digests=[["aa"], ["bb"]]),
            ShardRecord(shard_id=1, lane_indices=[2],
                        digests=[["cc", "dd"]])]


class TestManifest:
    def test_shard_record_dict_round_trip(self):
        record = ShardRecord(shard_id=3, lane_indices=[4, 5],
                             digests=[["x"], ["y"]], status=SHARD_FAILED,
                             attempts=2, error="boom")
        clone = ShardRecord.from_dict(record.to_dict())
        assert clone == record

    def test_write_load_round_trip(self, tmp_path):
        manifest = CampaignManifest(str(tmp_path), "camp", "compiled",
                                    "f00d", make_shards())
        manifest.write()
        loaded = CampaignManifest.load(str(tmp_path))
        assert loaded.campaign_name == "camp"
        assert loaded.engine == "compiled"
        assert loaded.source_digest == "f00d"
        assert loaded.shards == manifest.shards

    def test_load_rejects_missing_and_bad_version(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            CampaignManifest.load(str(tmp_path))
        manifest = CampaignManifest(str(tmp_path), "camp", "compiled",
                                    "f00d", make_shards())
        manifest.write()
        import json
        data = json.load(open(manifest.path))
        data["version"] = 99
        json.dump(data, open(manifest.path, "w"))
        with pytest.raises(ConfigurationError, match="version"):
            CampaignManifest.load(str(tmp_path))

    def test_version_1_manifest_is_refused_by_name(self, tmp_path):
        # version 1 digested the raw pickle of the lane source, which a
        # pickle-restored base does not reproduce
        manifest = CampaignManifest(str(tmp_path), "camp", "compiled",
                                    "f00d", make_shards())
        with open(manifest.path, "w") as fh:
            json.dump(dict(manifest.to_dict(), version=1), fh)
        with pytest.raises(ConfigurationError, match="version 1, expected 3"):
            CampaignManifest.create_or_resume(str(tmp_path), "camp",
                                              "compiled", "f00d",
                                              make_shards())

    def test_version_2_manifest_is_refused(self, tmp_path):
        # under version 2 a chunked lane read a time-shifted stimulus, so
        # its shard results hold other bits for the same scenarios
        manifest = CampaignManifest(str(tmp_path), "camp", "compiled",
                                    "f00d", make_shards())
        with open(manifest.path, "w") as fh:
            json.dump(dict(manifest.to_dict(), version=2), fh)
        with pytest.raises(ConfigurationError, match="version 2, expected 3"):
            CampaignManifest.create_or_resume(str(tmp_path), "camp",
                                              "compiled", "f00d",
                                              make_shards())

    def test_create_or_resume_keeps_statuses(self, tmp_path):
        first = CampaignManifest.create_or_resume(
            str(tmp_path), "camp", "compiled", "f00d", make_shards())
        first.shards[0].status = SHARD_DONE
        first.shards[0].attempts = 1
        first.write()
        resumed = CampaignManifest.create_or_resume(
            str(tmp_path), "camp", "compiled", "f00d", make_shards())
        assert resumed.shards[0].status == SHARD_DONE
        assert resumed.shards[0].attempts == 1
        assert resumed.shards[1].status != SHARD_DONE

    @pytest.mark.parametrize("kwargs,match", [
        (dict(campaign_name="other"), "campaign name"),
        (dict(engine="reference"), "engine"),
        (dict(source_digest="beef"), "lane source"),
    ])
    def test_create_or_resume_rejects_mismatch(self, tmp_path, kwargs, match):
        CampaignManifest.create_or_resume(str(tmp_path), "camp", "compiled",
                                          "f00d", make_shards())
        fields = dict(campaign_name="camp", engine="compiled",
                      source_digest="f00d")
        fields.update(kwargs)
        with pytest.raises(ConfigurationError, match=match):
            CampaignManifest.create_or_resume(
                str(tmp_path), fields["campaign_name"], fields["engine"],
                fields["source_digest"], make_shards())

    def test_create_or_resume_rejects_different_partition(self, tmp_path):
        CampaignManifest.create_or_resume(str(tmp_path), "camp", "compiled",
                                          "f00d", make_shards())
        shards = make_shards()
        shards[1].digests = [["ee", "dd"]]
        with pytest.raises(ConfigurationError, match="different lanes"):
            CampaignManifest.create_or_resume(str(tmp_path), "camp",
                                              "compiled", "f00d", shards)

    def test_load_shard_result_verifies_identity(self, tmp_path):
        manifest = CampaignManifest(str(tmp_path), "camp", "compiled",
                                    "f00d", make_shards())
        record = manifest.shards[0]
        # missing file
        assert manifest.load_shard_result(record) is None
        # wrong digests
        write_shard_payload(manifest.shard_result_path(0), {
            "shard_id": 0, "lane_indices": [0, 1],
            "digests": [["zz"], ["bb"]], "outcomes": []})
        assert manifest.load_shard_result(record) is None
        # corrupt pickle
        with open(manifest.shard_result_path(0), "wb") as fh:
            fh.write(b"not a pickle")
        assert manifest.load_shard_result(record) is None
        # valid payload
        write_shard_payload(manifest.shard_result_path(0), {
            "shard_id": 0, "lane_indices": [0, 1],
            "digests": [["aa"], ["bb"]], "outcomes": ["ok"]})
        payload = manifest.load_shard_result(record)
        assert payload["outcomes"] == ["ok"]

    def test_counts_and_unfinished(self):
        manifest = CampaignManifest("/nonexistent", "camp", "compiled",
                                    "f00d", make_shards())
        manifest.shards[0].status = SHARD_DONE
        assert manifest.counts()[SHARD_DONE] == 1
        assert [s.shard_id for s in manifest.unfinished()] == [1]

    def test_load_corrupt_manifest_raises_corruption_error(self, tmp_path):
        manifest = CampaignManifest(str(tmp_path), "camp", "compiled",
                                    "f00d", make_shards())
        manifest.write()
        # truncation (a crash mid-write of a non-atomic editor, or a
        # hand-mangled file) is corruption, not a campaign mismatch
        size = os.path.getsize(manifest.path)
        with open(manifest.path, "r+") as fh:
            fh.truncate(size // 2)
        with pytest.raises(ManifestCorruptionError):
            CampaignManifest.load(str(tmp_path))
        # and corruption IS a ConfigurationError, so existing callers
        # that catch the broad class keep working
        assert issubclass(ManifestCorruptionError, ConfigurationError)

    def test_malformed_fields_are_corruption(self, tmp_path):
        manifest = CampaignManifest(str(tmp_path), "camp", "compiled",
                                    "f00d", make_shards())
        manifest.write()
        import json
        data = json.load(open(manifest.path))
        del data["shards"][0]["lane_indices"]
        json.dump(data, open(manifest.path, "w"))
        with pytest.raises(ManifestCorruptionError, match="malformed"):
            CampaignManifest.load(str(tmp_path))

    def test_create_or_resume_salvages_corrupt_manifest(self, tmp_path):
        first = CampaignManifest.create_or_resume(
            str(tmp_path), "camp", "compiled", "f00d", make_shards())
        first.shards[0].status = SHARD_DONE
        first.write()
        with open(first.path, "w") as fh:
            fh.write('{"version": 1, "campaign_na')
        with pytest.warns(RuntimeWarning, match="corrupt"):
            rebuilt = CampaignManifest.create_or_resume(
                str(tmp_path), "camp", "compiled", "f00d", make_shards())
        # the damaged file is moved aside, never deleted
        assert os.path.exists(first.path + ".corrupt-0")
        # the rebuilt manifest starts from the requested shard set;
        # completed shard RESULT files are credited by the run loop
        assert all(s.status != SHARD_DONE for s in rebuilt.shards)
        assert CampaignManifest.load(str(tmp_path)).campaign_name == "camp"


# ---------------------------------------------------------------------------
# scenario digests
# ---------------------------------------------------------------------------

class TestScenarioDigest:
    def test_digest_is_stable_and_content_sensitive(self):
        a = settled_output_scenario(50.0, settle_s=0.1)
        same = settled_output_scenario(50.0, settle_s=0.1)
        other = settled_output_scenario(60.0, settle_s=0.1)
        assert a.digest() == same.digest()
        assert a.digest() != other.digest()

    def test_digest_sees_extractor_parameters(self):
        a = settled_output_scenario(50.0, settle_s=0.1, settle_fraction=0.4)
        b = settled_output_scenario(50.0, settle_s=0.1, settle_fraction=0.5)
        assert a.digest() != b.digest()


# ---------------------------------------------------------------------------
# result serialisation (what the shard files carry)
# ---------------------------------------------------------------------------

class TestSerialisation:
    def test_simulation_result_dict_round_trip(self):
        platform = GyroPlatform()
        result = platform.run(Environment.still(), 0.01)
        clone = type(result).from_dict(result.to_dict())
        for field in TRACE_FIELDS:
            assert np.array_equal(getattr(result, field),
                                  getattr(clone, field)), field
        assert clone.sample_rate_hz == result.sample_rate_hz
        assert clone.turn_on_time_s == result.turn_on_time_s

    def test_campaign_result_dict_round_trip(self, started_platform):
        camp = Campaign(rate_table_scenarios([0.0, 50.0], settle_s=0.02))
        result = camp.run(copy.deepcopy(started_platform))
        clone = CampaignResult.from_dict(result.to_dict())
        assert len(clone.lanes) == len(result.lanes)
        for lane, lane_clone in zip(result.lanes, clone.lanes):
            assert lane_clone.platform is None
            for o, oc in zip(lane.outcomes, lane_clone.outcomes):
                assert oc.metrics == o.metrics
                assert oc.scenario.name == o.scenario.name
                for field in TRACE_FIELDS:
                    assert np.array_equal(getattr(o.result, field),
                                          getattr(oc.result, field))

    def test_campaign_result_pickle_round_trip(self, started_platform):
        camp = Campaign(rate_table_scenarios([0.0], settle_s=0.02))
        result = camp.run(copy.deepcopy(started_platform))
        clone = pickle.loads(pickle.dumps(result))
        assert_campaigns_identical(result, clone)
        # the lane platform travels too, bit-identically: replaying the
        # same scenario on both continues the simulation identically
        follow = Campaign([settled_output_scenario(10.0, settle_s=0.02)])
        a = follow.run(platforms=[result.lanes[0].platform])
        b = follow.run(platforms=[clone.lanes[0].platform])
        assert_campaigns_identical(a, b)

    def test_faulted_partial_result_round_trip_is_lossless(
            self, started_platform, tmp_path):
        # the result store serialises lane outcomes through to_dict and
        # trusts from_dict(d).to_dict() == d bit for bit; lock that for
        # the hardest case — a faulted scenario that latches safe mode
        # (optional safety scalars populated) inside a PARTIAL sharded
        # result carrying a failure report
        latch = Scenario(name="latch",
                         environment=Environment.constant_rate(80.0),
                         duration_s=0.03,
                         faults=(AfeSaturation(t_start=0.01, t_stop=0.02),))
        camp = Campaign([latch,
                         settled_output_scenario(10.0, settle_s=0.02)],
                        name="lossless")
        partial = camp.run(copy.deepcopy(started_platform), workers=2,
                           shard_size=1, manifest_dir=str(tmp_path),
                           retry=RetryPolicy(max_attempts=1),
                           chaos=FAIL_SHARD_1)
        assert not partial.complete and partial.lanes[1] is None

        data = partial.to_dict()
        # the safety fields actually travelled
        result_dict = data["lanes"][0]["outcomes"][0]["result"]
        assert result_dict["safe_mode"] is True
        assert result_dict["safe_mode_events"] == 1
        assert result_dict["safe_mode_entry_s"] is not None
        assert data["failed_shards"] == partial.failed_shards
        # and the round trip is lossless, digests included
        clone = CampaignResult.from_dict(data)
        assert clone.to_dict() == data
        assert (clone.lanes[0].outcomes[0].digest()
                == partial.lanes[0].outcomes[0].digest())

    def test_library_scenarios_are_picklable(self):
        scenarios = [startup_scenario(),
                     settled_output_scenario(50.0, settle_s=0.1),
                     *rate_table_scenarios([0.0, 10.0], settle_s=0.1)]
        clones = pickle.loads(pickle.dumps(scenarios))
        for original, clone in zip(scenarios, clones):
            assert clone.digest() == original.digest()


# ---------------------------------------------------------------------------
# sharded == local equivalence (the tentpole lock)
# ---------------------------------------------------------------------------

class TestShardedEquivalence:
    def test_rate_table_campaign_bit_identical(self, started_platform,
                                               tmp_path):
        camp = Campaign(rate_table_scenarios([-50.0, 0.0, 50.0],
                                             settle_s=0.05),
                        name="rate-table")
        local = camp.run(copy.deepcopy(started_platform))
        sharded = camp.run(copy.deepcopy(started_platform), workers=2,
                           manifest_dir=str(tmp_path))
        assert_campaigns_identical(local, sharded)

        manifest = CampaignManifest.load(str(tmp_path))
        assert [s.status for s in manifest.shards] == [SHARD_DONE] * 2
        assert sorted(i for s in manifest.shards
                      for i in s.lane_indices) == [0, 1, 2]

        # the returned lane platforms behave bit-identically too
        follow = Campaign([settled_output_scenario(25.0, settle_s=0.02)])
        for lane_l, lane_s in zip(local.lanes, sharded.lanes):
            a = follow.run(platforms=[lane_l.platform])
            b = follow.run(platforms=[lane_s.platform])
            assert_campaigns_identical(a, b)

    def test_mixed_campaign_threaded_sharded_and_reference_agree(
            self, tmp_path, monkeypatch):
        # temperatures, lengths, a stop check, a fault window and
        # caller-owned lanes of two kernel plans; the local run's rounds
        # are threaded on the C backend (at any size, to keep the
        # reference replay short), and the sharded run forks its workers
        # right after it
        monkeypatch.setattr(compiled, "MIN_THREADED_SAMPLES", 0)
        closed = GyroPlatformConfig()
        closed.conditioner.closed_loop = True
        configs = [GyroPlatformConfig(), closed, GyroPlatformConfig(),
                   closed, GyroPlatformConfig()]
        programs = [
            settled_output_scenario(50.0, -20.0, settle_s=0.02),
            Scenario("stop-check", Environment.constant_rate(-30.0, 70.0),
                     0.03, stop=startup_complete, stop_check_s=0.01),
            fault_scenario(StuckAdcCode(t_start=0.005, t_stop=0.012, code=5),
                           30.0, 0.02),
            [settled_output_scenario(10.0, 70.0, settle_s=0.01),
             settled_output_scenario(-10.0, -20.0, settle_s=0.025)],
            settled_output_scenario(0.0, 25.0, settle_s=0.005),
        ]
        camp = Campaign(programs, name="mixed")

        def lane_digests(**kwargs):
            platforms = [GyroPlatform(copy.deepcopy(cfg)) for cfg in configs]
            result = camp.run(platforms=platforms, **kwargs)
            return [content_digest(lane.to_dict()) for lane in result.lanes]

        threaded = lane_digests()
        assert lane_digests(workers=2, manifest_dir=str(tmp_path)) == threaded
        assert lane_digests(engine="reference") == threaded

    def test_multi_scenario_programs_bit_identical(self, started_platform):
        # two scenarios per lane: rollover boundaries must agree across
        # executors even when lanes are split into different shards
        programs = [[settled_output_scenario(0.0, settle_s=0.04),
                     settled_output_scenario(30.0, settle_s=0.02)],
                    [settled_output_scenario(-30.0, settle_s=0.03),
                     settled_output_scenario(10.0, settle_s=0.03)]]
        camp = Campaign(programs, name="programs")
        local = camp.run(copy.deepcopy(started_platform))
        sharded = camp.run(copy.deepcopy(started_platform), workers=2)
        assert_campaigns_identical(local, sharded)

    def test_calibration_programs_identical_words(self):
        local = GyroPlatform()
        local.calibrate(rates_dps=(-100.0, 0.0, 100.0), settle_s=0.1)
        sharded = GyroPlatform()
        sharded.calibrate(rates_dps=(-100.0, 0.0, 100.0), settle_s=0.1,
                          executor="sharded", workers=2)
        chain_l = local.conditioner.sense_chain
        chain_s = sharded.conditioner.sense_chain
        assert (chain_s.scaler.config.scale_dps_per_unit
                == chain_l.scaler.config.scale_dps_per_unit)
        assert chain_s.offset_comp.offset == chain_l.offset_comp.offset
        assert sharded.calibrated

    def test_sharded_rejects_unpicklable_scenarios(self, started_platform):
        scenario = Scenario(name="lambda", environment=Environment.still(),
                            duration_s=0.01,
                            extractors={"x": lambda p, r: 0.0})
        camp = Campaign([scenario])
        with pytest.raises(ConfigurationError, match="picklable"):
            camp.run(copy.deepcopy(started_platform), workers=2)


# ---------------------------------------------------------------------------
# fault injection, retry and resume
# ---------------------------------------------------------------------------

#: every shard's first attempt raises
FAIL_FIRST_ATTEMPT = ChaosPlan([WorkerError(message="injected fault")])
#: shard 1 raises on every attempt
FAIL_SHARD_1 = ChaosPlan([WorkerError(shard=1, attempt=None,
                                      message="injected persistent fault")])
#: any shard that actually launches raises
FAIL_ALWAYS = ChaosPlan([WorkerError(attempt=None,
                                     message="shard should not have run")])


class TestFaultInjectionAndResume:
    def test_failed_shards_retry_and_recover(self, started_platform,
                                             tmp_path):
        camp = Campaign(rate_table_scenarios([0.0, 40.0], settle_s=0.04),
                        name="retry")
        local = camp.run(copy.deepcopy(started_platform))
        sharded = camp.run(copy.deepcopy(started_platform), workers=2,
                           manifest_dir=str(tmp_path),
                           chaos=FAIL_FIRST_ATTEMPT)
        assert_campaigns_identical(local, sharded)
        manifest = CampaignManifest.load(str(tmp_path))
        assert all(s.status == SHARD_DONE for s in manifest.shards)
        assert all(s.attempts == 2 for s in manifest.shards)

    def test_exhausted_retries_quarantine_into_partial_result(
            self, started_platform, tmp_path):
        camp = Campaign(rate_table_scenarios([0.0, 40.0], settle_s=0.04),
                        name="resume")
        partial = camp.run(copy.deepcopy(started_platform), workers=2,
                           manifest_dir=str(tmp_path),
                           retry=RetryPolicy(max_attempts=2, backoff_s=0.01),
                           chaos=FAIL_SHARD_1)

        # the poisoned shard is quarantined, not fatal: the campaign
        # completes with the healthy shard's results and an explicit
        # failure report
        assert not partial.complete
        assert partial.failed_lane_indices() == [1]
        assert partial.lanes[0] is not None and partial.lanes[1] is None
        assert len(partial.failed_shards) == 1
        report = partial.failed_shards[0]
        assert report["shard_id"] == 1
        assert report["lane_indices"] == [1]
        assert report["attempts"] == 2
        assert "injected persistent fault" in report["error"]
        assert len(partial.outcomes()) == 1    # healthy lane only

        # the partial result serialises, failure report included
        restored = CampaignResult.from_dict(partial.to_dict())
        assert restored.failed_shards == partial.failed_shards
        assert restored.lanes[1] is None

        manifest = CampaignManifest.load(str(tmp_path))
        assert manifest.shards[0].status == SHARD_DONE
        assert manifest.shards[1].status == SHARD_FAILED
        assert "injected persistent fault" in manifest.shards[1].error
        assert manifest.retry == {"max_attempts": 2, "backoff_s": 0.01,
                                  "backoff_factor": 2.0,
                                  "max_backoff_s": 30.0,
                                  "deadline_s": None}
        assert os.path.exists(manifest.shard_result_path(0))
        attempts_before = manifest.shards[0].attempts

        # resume without the fault: only the failed shard re-runs, and
        # the assembled result matches the all-local run bit for bit
        resumed = camp.run(copy.deepcopy(started_platform), workers=2,
                           manifest_dir=str(tmp_path))
        assert resumed.complete and not resumed.failed_shards
        local = camp.run(copy.deepcopy(started_platform))
        assert_campaigns_identical(local, resumed)
        manifest = CampaignManifest.load(str(tmp_path))
        assert all(s.status == SHARD_DONE for s in manifest.shards)
        assert manifest.shards[0].attempts == attempts_before

    def test_corrupt_manifest_rebuilds_from_shard_files(
            self, started_platform, tmp_path):
        # a truncated manifest.json must not kill the resume OR throw
        # away completed work: the manifest is rebuilt and the
        # surviving shard-NNNN.pkl files are digest-verified and
        # credited without re-simulation — proven by a fault hook that
        # kills any shard that actually launches
        camp = Campaign(rate_table_scenarios([0.0, 40.0], settle_s=0.04),
                        name="rebuild")
        first = camp.run(copy.deepcopy(started_platform), workers=2,
                         manifest_dir=str(tmp_path))
        manifest_path = os.path.join(str(tmp_path), "manifest.json")
        with open(manifest_path, "w") as fh:
            fh.write('{"version": 1, "campaign_na')

        with pytest.warns(RuntimeWarning, match="corrupt"):
            resumed = camp.run(copy.deepcopy(started_platform), workers=2,
                               manifest_dir=str(tmp_path),
                               chaos=FAIL_ALWAYS)
        assert resumed.complete
        assert_campaigns_identical(first, resumed)
        assert os.path.exists(manifest_path + ".corrupt-0")
        manifest = CampaignManifest.load(str(tmp_path))
        assert all(s.status == SHARD_DONE for s in manifest.shards)

    def test_resume_from_pickle_restored_base_credits_every_shard(
            self, started_platform, tmp_path):
        # the restored base re-pickles to other bytes, but the resume
        # identity is the normalised lane digests the store keys on
        camp = Campaign(rate_table_scenarios([-40.0, 0.0, 40.0, 80.0],
                                             settle_s=0.03),
                        name="restored")
        base = copy.deepcopy(started_platform)
        restored = pickle.loads(pickle.dumps(base))
        first = camp.run(base, workers=2, manifest_dir=str(tmp_path))
        resumed = camp.run(restored, workers=2, manifest_dir=str(tmp_path),
                           chaos=FAIL_ALWAYS)
        assert_campaigns_identical(first, resumed)
        manifest = CampaignManifest.load(str(tmp_path))
        assert [s.attempts for s in manifest.shards] == [1, 1]
        assert (LaneSource.resolve(restored, None, 4).lane_digests(4)
                == LaneSource.resolve(base, None, 4).lane_digests(4))

    @pytest.mark.parametrize("damage", ["delete", "truncate"])
    def test_done_shard_with_a_lost_result_re_runs(
            self, started_platform, tmp_path, damage):
        # a done shard whose result file is gone or damaged re-runs on
        # resume, alone, and its lanes come back as the first run's
        camp = Campaign(rate_table_scenarios([-40.0, 0.0, 40.0, 80.0],
                                             settle_s=0.03),
                        name="heal")
        first = camp.run(copy.deepcopy(started_platform), workers=2,
                         manifest_dir=str(tmp_path))
        path = CampaignManifest.load(str(tmp_path)).shard_result_path(0)
        if damage == "delete":
            os.remove(path)
        else:
            with open(path, "r+b") as fh:
                fh.truncate(16)
        healed = camp.run(copy.deepcopy(started_platform), workers=2,
                          manifest_dir=str(tmp_path))
        manifest = CampaignManifest.load(str(tmp_path))
        assert [s.attempts for s in manifest.shards] == [2, 1]
        assert all(s.status == SHARD_DONE for s in manifest.shards)
        assert ([content_digest(lane.to_dict()) for lane in healed.lanes]
                == [content_digest(lane.to_dict()) for lane in first.lanes])

    def test_each_shard_result_is_read_once(self, started_platform,
                                            tmp_path, monkeypatch):
        reads = []
        load = CampaignManifest.load_verified_payload

        def counted(manifest, path, record):
            if os.path.exists(path):
                reads.append(record.shard_id)
            return load(manifest, path, record)

        monkeypatch.setattr(CampaignManifest, "load_verified_payload",
                            counted)
        camp = Campaign(rate_table_scenarios([0.0, 40.0], settle_s=0.02),
                        name="read-once")
        camp.run(copy.deepcopy(started_platform), workers=2,
                 manifest_dir=str(tmp_path))
        assert sorted(reads) == [0, 1]

    def test_resume_rejects_different_campaign(self, started_platform,
                                               tmp_path):
        camp = Campaign(rate_table_scenarios([0.0, 40.0], settle_s=0.04),
                        name="original")
        camp.run(copy.deepcopy(started_platform), workers=2,
                 manifest_dir=str(tmp_path))
        other = Campaign(rate_table_scenarios([0.0, 40.0], settle_s=0.04),
                         name="imposter")
        with pytest.raises(ConfigurationError, match="different campaign"):
            other.run(copy.deepcopy(started_platform), workers=2,
                      manifest_dir=str(tmp_path))

    def test_shard_size_controls_partition(self, started_platform,
                                           tmp_path):
        camp = Campaign(rate_table_scenarios([-40.0, 0.0, 40.0],
                                             settle_s=0.03),
                        name="partition")
        local = camp.run(copy.deepcopy(started_platform))
        sharded = camp.run(copy.deepcopy(started_platform), workers=2,
                           shard_size=1, manifest_dir=str(tmp_path))
        assert_campaigns_identical(local, sharded)
        manifest = CampaignManifest.load(str(tmp_path))
        assert len(manifest.shards) == 3
        assert [s.lane_indices for s in manifest.shards] == [[0], [1], [2]]
