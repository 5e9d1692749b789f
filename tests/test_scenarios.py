"""Tests for the scenario / campaign subsystem (``repro.scenarios``).

The campaign runner promises that a scenario program replayed through
any engine — reference loop, compiled kernel on either lane backend,
any fleet packing — from the same platform state produces bit-identical
traces, metrics and final state, early-stop chunking included.  These
tests hold it to that, lock the fleet-vs-sequential calibration
equivalence, check that each lane counts samples on its own platform's
grid in mixed-rate campaigns, and cover the engine registry and lane
branching: every ``platform=`` lane is unpickled from one shared
pickle of the base, never deep-copied, and shares no state with its
siblings or the base.
"""

import copy
import json
import math

import numpy as np
import pytest

from repro.common import ConfigurationError, SimulationError
from repro.platform import GyroPlatform, GyroPlatformConfig
from repro.platform.result import concatenate_results
from repro.scenarios import (
    Campaign,
    Scenario,
    engine_names,
    get_engine,
    noise_floor_scenario,
    rate_table_scenarios,
    settled_output_scenario,
    startup_complete,
    tail_mean,
    validate_engine,
)
from repro.scenarios.executor import LaneSource
from repro.sensors import Environment
from repro.sensors.environment import (
    ConstantProfile,
    RampProfile,
    SineProfile,
    TimeShiftedProfile,
)

TRACE_FIELDS = (
    "time_s", "true_rate_dps", "temperature_c", "rate_output_dps",
    "rate_output_v", "amplitude_control", "phase_error", "pll_locked",
    "running",
)


def _assert_outcomes_identical(a, b):
    assert a.name == b.name
    assert a.stopped_early == b.stopped_early
    assert a.elapsed_s == b.elapsed_s
    for field in TRACE_FIELDS:
        np.testing.assert_array_equal(getattr(a.result, field),
                                      getattr(b.result, field),
                                      err_msg=f"{a.name}:{field}")
    assert a.metrics == b.metrics


class TestEngineRegistry:
    def test_registry_names(self):
        assert engine_names() == ("reference", "compiled")
        assert GyroPlatformConfig().engine == "compiled"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            get_engine("warp")
        with pytest.raises(ConfigurationError):
            validate_engine("warp")

    def test_batched_is_not_an_engine(self):
        # the fleet layout follows the fleet's shape; no engine name
        # selects it
        old_name = "batched"
        with pytest.raises(ConfigurationError):
            get_engine(old_name)
        with pytest.raises(ConfigurationError):
            GyroPlatformConfig(engine=old_name)
        with pytest.raises(ConfigurationError):
            GyroPlatform().run(Environment.still(), 0.01, engine=old_name)
        with pytest.raises(ConfigurationError):
            Campaign([settled_output_scenario(0.0)]).run(GyroPlatform(),
                                                         engine=old_name)


class TestScenarioValidation:
    def test_duration_must_be_positive(self):
        for bad in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                Scenario("bad", Environment.still(), bad)

    def test_stop_check_needs_stop(self):
        with pytest.raises(ConfigurationError):
            Scenario("bad", Environment.still(), 0.1, stop_check_s=0.05)
        with pytest.raises(ConfigurationError):
            Scenario("bad", Environment.still(), 0.1, require_stop=True)

    def test_stop_check_range(self):
        with pytest.raises(ConfigurationError):
            Scenario("bad", Environment.still(), 0.1,
                     stop=lambda p: True, stop_check_s=0.2)

    def test_default_stop_check_is_duration(self):
        scenario = Scenario("s", Environment.still(), 0.1,
                            stop=lambda p: True)
        assert scenario.stop_check_s == 0.1

    def test_non_real_durations_rejected(self):
        for bad in ("0.1", None):
            with pytest.raises(ConfigurationError, match="real number"):
                Scenario("bad", Environment.still(), bad)
        with pytest.raises(ConfigurationError, match="real number"):
            Scenario("bad", Environment.still(), 0.1,
                     stop=startup_complete, stop_check_s="0.05")

    def test_numpy_and_int_durations_are_floats(self):
        # a NumPy or int duration is stored as the equal Python float: it
        # serialises, and digests (so keys a store) like that float
        plain = Scenario("s", Environment.still(), 0.002)
        for duration in (np.float64(0.002), np.float32(0.002), np.int64(1),
                         1):
            scenario = Scenario("s", Environment.still(), duration,
                                stop=startup_complete,
                                stop_check_s=np.float32(0.001))
            assert type(scenario.duration_s) is float
            assert type(scenario.stop_check_s) is float
            assert scenario.duration_s == float(duration)
        assert (Scenario("s", Environment.still(), np.float64(0.002))
                .digest() == plain.digest())
        # a campaign lane with a NumPy duration serialises like one with
        # the equal float
        lanes = [Campaign([Scenario("s", Environment.still(), duration)])
                 .run(GyroPlatform()).lanes[0]
                 for duration in (np.float32(0.002),
                                  float(np.float32(0.002)))]
        assert (json.dumps(lanes[0].to_dict())
                == json.dumps(lanes[1].to_dict()))


class TestCampaignValidation:
    def test_needs_programs(self):
        with pytest.raises(ConfigurationError):
            Campaign([])
        with pytest.raises(ConfigurationError):
            Campaign([[]])
        with pytest.raises(ConfigurationError):
            Campaign(["not a scenario"])

    def test_engine_validated_at_run(self):
        platform = GyroPlatform()
        with pytest.raises(ConfigurationError):
            Campaign([settled_output_scenario(0.0)]).run(platform,
                                                         engine="warp")
        assert platform.now == 0.0

    def test_exactly_one_base(self):
        campaign = Campaign([settled_output_scenario(0.0, settle_s=0.01)])
        with pytest.raises(ConfigurationError):
            campaign.run()
        with pytest.raises(ConfigurationError):
            campaign.run(GyroPlatform(), platforms=[GyroPlatform()])

    def test_platforms_count_must_match(self):
        campaign = Campaign([settled_output_scenario(0.0, settle_s=0.01)])
        with pytest.raises(ConfigurationError):
            campaign.run(platforms=[GyroPlatform(), GyroPlatform()])


def _locked(platform):
    return platform.conditioner.drive_loop.pll.locked


def _mixed_programs():
    """A heterogeneous campaign: early stop, multi-scenario lane,
    plain settled lane with a time-varying stimulus."""
    lock = Scenario("lock-in", Environment.still(), 0.4,
                    reset=True, stop=_locked, stop_check_s=0.05,
                    require_stop=True,
                    extractors={"now": lambda p, r: p.now})
    after = settled_output_scenario(50.0, settle_s=0.07)
    ramp = Scenario("ramp", Environment(
        rate_dps=RampProfile(start=0.0, stop=80.0, t0=0.0, t1=0.1),
        temperature_c=ConstantProfile(30.0)), 0.12,
        extractors={"tail": lambda p, r: tail_mean(r.rate_output_dps, 0.5)})
    return [[lock, after], [ramp]]


class TestCampaignEquivalence:
    def test_batched_matches_sequential_with_early_stop(self, kernel_backend):
        base = GyroPlatform()
        campaign = Campaign(_mixed_programs())
        reference = campaign.run(base, engine="reference")
        for _ in kernel_backend:
            fleet = campaign.run(base)
            for lane_a, lane_b in zip(fleet.lanes, reference.lanes):
                assert len(lane_a.outcomes) == len(lane_b.outcomes)
                for a, b in zip(lane_a.outcomes, lane_b.outcomes):
                    _assert_outcomes_identical(a, b)
        # the early stop actually fired before the duration limit
        lock = reference.outcome("lock-in")
        assert lock.stopped_early
        assert lock.elapsed_s < 0.4
        # branching campaigns leave the base platform untouched
        assert base.now == 0.0

    def test_start_matches_legacy_chunked_loop(self):
        a, b = GyroPlatform(), GyroPlatform()
        res_new = a.start()
        env = Environment.still(25.0)
        segments = [b.run(env, 0.1, reset=True)]
        while not b.conditioner.running and b.now < 1.5:
            segments.append(b.run(env, 0.1))
        assert b.conditioner.running
        res_old = concatenate_results(segments)
        for field in TRACE_FIELDS:
            np.testing.assert_array_equal(getattr(res_new, field),
                                          getattr(res_old, field),
                                          err_msg=field)
        assert res_new.turn_on_time_s == res_old.turn_on_time_s
        assert a.now == b.now

    def test_startup_timeout_raises(self):
        platform = GyroPlatform()
        with pytest.raises(SimulationError):
            # far too short for the sequencer to reach RUNNING
            platform.start(max_duration_s=0.05, chunk_s=0.05)

    def test_waveforms_only_where_requested(self, kernel_backend):
        want = Scenario("wave", Environment.still(), 0.02, reset=True,
                        record_waveforms=True)
        plain = Scenario("plain", Environment.still(), 0.02, reset=True)
        for _ in kernel_backend:
            result = Campaign([want, plain]).run(GyroPlatform())
            wave = result.outcome("wave").result
            assert wave.primary_pickoff_norm is not None
            assert wave.drive_word is not None
            assert result.outcome("plain").result.primary_pickoff_norm \
                is None

    def test_mixed_rate_lanes_count_their_own_samples(self):
        # each lane steps on its own platform's sample grid: the 100 kHz
        # lane of a mixed-rate campaign runs exactly what it runs alone
        scenario = Scenario("odd", Environment.constant_rate(40.0),
                            0.0123456)
        alone = Campaign([scenario]).run(
            GyroPlatform(GyroPlatformConfig(sample_rate_hz=100_000.0)))
        mixed = Campaign([scenario, scenario]).run(
            platforms=[GyroPlatform(),
                       GyroPlatform(GyroPlatformConfig(
                           sample_rate_hz=100_000.0))],
            engine="compiled")
        assert mixed.lanes[1].outcomes[0].elapsed_s == 1235 / 100_000.0
        _assert_outcomes_identical(mixed.lanes[1].outcomes[0],
                                   alone.lanes[0].outcomes[0])
        assert (mixed.lanes[1].outcomes[0].result.digest()
                == alone.lanes[0].outcomes[0].result.digest())

    def test_metric_and_outcome_lookup(self):
        campaign = Campaign(rate_table_scenarios((-50.0, 50.0),
                                                 settle_s=0.02))
        result = campaign.run(GyroPlatform(), engine="compiled")
        assert len(result.metric("raw_channel")) == 2
        assert result.outcome("settled[+50dps@25C]").metrics["raw_channel"] \
            == result.lanes[1].outcomes[0].metrics["raw_channel"]
        with pytest.raises(ConfigurationError):
            result.metric("bogus")
        with pytest.raises(ConfigurationError):
            result.outcome("bogus")


class TestCalibrationEquivalence:
    """Fleet calibration programs bit-identical words on both backends."""

    def test_fleet_and_sequential_calibration_identical(self, kernel_backend):
        sequential = GyroPlatform()
        sequential.calibrate(settle_s=0.1, engine="reference")  # one by one
        chain_s = sequential.conditioner.sense_chain
        for _ in kernel_backend:
            fleet = GyroPlatform()
            fleet.calibrate(settle_s=0.1)                       # fleet sweep
            chain_f = fleet.conditioner.sense_chain
            assert chain_f.scaler.config == chain_s.scaler.config
            assert chain_f.offset_comp.offset == chain_s.offset_comp.offset
            assert fleet.calibrated and sequential.calibrated

    def test_temperature_calibration_identical(self, kernel_backend):
        base = GyroPlatform()
        base.calibrate(settle_s=0.1)
        configs = []
        for _ in kernel_backend:
            other = copy.deepcopy(base)
            other.calibrate_temperature(temperatures_c=(0.0, 25.0, 60.0),
                                        settle_s=0.06)
            configs.append(
                other.conditioner.sense_chain.temperature_comp.config)
        assert all(config == configs[0] for config in configs)


def state_digest(platform) -> str:
    """The store's normalised digest of a platform's state."""
    return LaneSource.resolve(platform, None, 1).lane_digests(1)[0]


class TestBranching:
    def test_branching_never_deep_copies_a_platform(
            self, forbid_platform_deepcopy):
        platform = GyroPlatform()
        before = state_digest(platform)
        envs = [Environment.still(), Environment.constant_rate(80.0)]
        branched = Campaign([Scenario(f"run[{i}]", env, 0.02)
                             for i, env in enumerate(envs)]).run(platform)
        direct = [GyroPlatform().run(env, 0.02) for env in envs]
        assert ([lane.outcomes[0].result.digest() for lane in branched]
                == [r.digest() for r in direct])
        assert state_digest(platform) == before

    def test_branched_lanes_share_no_state(self):
        base = GyroPlatform()
        before = state_digest(base)
        source = LaneSource.resolve(base, None, 2)
        first, second = source.materialize(range(2))
        # every lane starts from the base's exact state
        assert state_digest(second) == before
        first.run(Environment.constant_rate(50.0), 0.01)
        assert state_digest(second) == before
        assert state_digest(base) == before

    def test_prebuilt_platforms_carry_state_across_campaigns(self):
        lanes = [GyroPlatform(), GyroPlatform()]
        envs = [Environment.still(), Environment.constant_rate(80.0)]
        campaign = Campaign([Scenario(name=f"run[{i}]", environment=env,
                                      duration_s=0.02)
                             for i, env in enumerate(envs)])
        first = campaign.run(platforms=lanes)
        assert all(lane.now == pytest.approx(0.02) for lane in lanes)
        second = campaign.run(platforms=lanes)
        assert all(lane.now == pytest.approx(0.04) for lane in lanes)
        assert all(outcome.platform is lane
                   for outcome, lane in zip(second.lanes, lanes))
        # two campaigns on the same lanes are exactly one longer run
        long = GyroPlatform().run(envs[1], 0.04, engine="reference")
        halves = [run.lanes[1].outcomes[0].result.rate_output_dps
                  for run in (first, second)]
        np.testing.assert_array_equal(long.rate_output_dps,
                                      np.concatenate(halves))

    def test_unpicklable_base_is_rejected_but_runs_unbranched(self):
        platform = GyroPlatform()
        platform.conditioner.registers.on_write("dsp_drive_gain",
                                                lambda value: None)
        campaign = Campaign([Scenario(name="hooked",
                                      environment=Environment.still(),
                                      duration_s=0.01)])
        with pytest.raises(ConfigurationError, match="must be picklable"):
            campaign.run(platform)
        # caller-owned lanes never branch, so the hooked platform runs
        assert campaign.run(platforms=[platform]).complete

    @pytest.mark.parametrize("args, kwargs, kind", [
        ((GyroPlatformConfig(),), {}, "GyroPlatformConfig"),
        (("p",), {}, "str"),
        ((), {"platforms": [None]}, "NoneType"),
    ])
    def test_base_that_is_not_a_platform_is_rejected(self, args, kwargs,
                                                     kind):
        campaign = Campaign([Scenario(name="still",
                                      environment=Environment.still(),
                                      duration_s=0.01)])
        with pytest.raises(ConfigurationError, match=f"got {kind}$"):
            campaign.run(*args, **kwargs)


class TestTimeShiftedProfiles:
    def test_shift_matches_offset_evaluation(self):
        profile = SineProfile(amplitude=10.0, frequency_hz=3.0)
        shifted = TimeShiftedProfile(profile, 0.25)
        t = np.linspace(0.0, 0.5, 64)
        np.testing.assert_array_equal(shifted.sample(t),
                                      profile.sample(t + 0.25))
        assert shifted.value(0.1) == profile.value(0.1 + 0.25)

    def test_constant_profiles_not_wrapped(self):
        env = Environment.still(30.0)
        assert env.shifted(0.5).rate_dps is env.rate_dps
        assert env.shifted(0.5).temperature_c is env.temperature_c

    def test_nested_shifts_collapse(self):
        env = Environment.sinusoidal_rate(5.0, 2.0)
        twice = env.shifted(0.1).shifted(0.2)
        assert isinstance(twice.rate_dps, TimeShiftedProfile)
        assert twice.rate_dps.offset_s == pytest.approx(0.3)
        assert not isinstance(twice.rate_dps.base, TimeShiftedProfile)

    def test_negative_shift_rejected(self):
        with pytest.raises(ConfigurationError):
            Environment.still().shifted(-0.1)


class TestNoiseFloorScenario:
    def test_matches_direct_measurement(self):
        platform = GyroPlatform()
        platform.start()
        clone = copy.deepcopy(platform)
        scenario = noise_floor_scenario(duration_s=0.8)
        result = Campaign([scenario]).run(platforms=[platform])
        density = result.lanes[0].outcomes[0].metrics["noise_density"]
        record = clone.run(Environment.still(), 0.8).rate_output_dps
        from repro.scenarios import noise_density_from_record
        expected = noise_density_from_record(
            record, platform.config.sample_rate_hz /
            platform.config.record_decimation, (2.0, 20.0))
        assert density == expected
