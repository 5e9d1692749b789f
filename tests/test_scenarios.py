"""Tests for the scenario / campaign subsystem (``repro.scenarios``).

The campaign runner promises that a scenario program replayed through
any engine — reference loop, compiled kernel on either lane backend,
any fleet packing — from the same platform state produces bit-identical
traces, metrics and final state, early-stop chunking included, and
that a lane paused at stop checks ends where one continuous run ends,
whatever its stimulus.  These
tests hold it to that, lock the fleet-vs-sequential calibration
equivalence, check that each lane counts samples on its own platform's
grid in mixed-rate campaigns, that both engines evaluate a custom
profile through ``Profile.sample``, and cover the engine registry and lane
branching: every ``platform=`` lane is unpickled from one shared
pickle of the base, never deep-copied, and shares no state with its
siblings or the base.
"""

import copy
import dataclasses
import functools
import json
import math
import os
import pickle
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies.settings import QUICK_SETTINGS

from repro.common import ConfigurationError, SimulationError
from repro.engine import compiled
from repro.engine.state import biquad_values, pack_scalar_state
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
    PiecewiseProfile,
    Profile,
    RampProfile,
    SineProfile,
    StepProfile,
)
from repro.store import ResultStore

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

    @pytest.mark.parametrize("executor", ["local", "sharded"])
    def test_one_platform_for_two_lanes_is_refused(self, executor,
                                                   tmp_path):
        # both lanes would advance one object: the second would start
        # where the first ended (and race it on threads)
        platform = GyroPlatform()
        campaign = Campaign(rate_table_scenarios([10.0, 50.0],
                                                 settle_s=0.01))
        options = ({"workers": 2, "manifest_dir": str(tmp_path)}
                   if executor == "sharded" else {})
        with pytest.raises(ConfigurationError, match="more than one lane"):
            campaign.run(platforms=[platform, platform], **options)
        assert platform.now == 0.0
        assert not list(tmp_path.iterdir())


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


def record_lane_threads(monkeypatch, barrier=None) -> list:
    """Record the thread each compiled-engine lane runs on.

    With a ``barrier``, each lane waits there for another lane to
    arrive, so lanes that do not overlap in time break it.
    """
    idents = []
    run = compiled.run_compiled

    def recorded(*args, **kwargs):
        idents.append(threading.get_ident())
        if barrier is not None:
            barrier.wait()
        return run(*args, **kwargs)

    monkeypatch.setattr(compiled, "run_compiled", recorded)
    return idents


class LaneFailure(Exception):
    pass


class FailingRate(Profile):
    """A rate profile that raises :class:`LaneFailure` after a delay."""

    def __init__(self, message: str, delay_s: float = 0.0):
        self.message = message
        self.delay_s = delay_s

    def sample(self, t):
        time.sleep(self.delay_s)
        raise LaneFailure(self.message)


class OverflowingRate(Profile):
    """A rate profile whose evaluation overflows float64."""

    def sample(self, t):
        return np.full(np.shape(t), 1.0e308) * 10.0


def _lanes(rates, temperature_c=40.0, duration_s=0.01):
    return [Scenario(f"lane[{i}]", Environment(
        rate_dps=rate if isinstance(rate, Profile) else ConstantProfile(rate),
        temperature_c=(temperature_c if isinstance(temperature_c, Profile)
                       else ConstantProfile(temperature_c))), duration_s)
        for i, rate in enumerate(rates)]


threads_available = pytest.mark.skipif(
    compiled.COMPILER is None or (os.cpu_count() or 1) < 2,
    reason="threaded rounds need the C backend and two CPUs")


@pytest.fixture
def any_round_size(monkeypatch):
    """Let rounds of any size run on threads, so short lanes test them."""
    monkeypatch.setattr(compiled, "MIN_THREADED_SAMPLES", 0)


class TestThreadedRounds:
    """A large round of C lanes at constant temperatures runs on threads,
    with the serial contract: results in lane order, the first failing
    lane's exception, the caller's context in every lane."""

    @threads_available
    def test_constant_temperature_round_uses_threads(self, kernel_backend,
                                                     monkeypatch):
        kernel_backend("c")
        idents = record_lane_threads(monkeypatch,
                                     threading.Barrier(2, timeout=30.0))
        # 4 lanes of 18,000 samples reach MIN_THREADED_SAMPLES
        result = Campaign(_lanes([0.0, 10.0, 20.0, 30.0],
                                 duration_s=0.15)).run(GyroPlatform())
        assert len(set(idents)) > 1
        assert [lane.outcomes[0].name for lane in result.lanes] == [
            f"lane[{i}]" for i in range(4)]

    @pytest.mark.parametrize("case", ["small", "ramp", "one-lane",
                                      "python"])
    def test_other_rounds_run_in_the_calling_thread(self, kernel_backend,
                                                    monkeypatch, case):
        kernel_backend("python" if case == "python" else
                       kernel_backend.names[0])
        if case != "small":
            monkeypatch.setattr(compiled, "MIN_THREADED_SAMPLES", 0)
        idents = record_lane_threads(monkeypatch)
        rates = [5.0] if case == "one-lane" else [0.0, 10.0, 20.0, 30.0]
        temperature = (RampProfile(start=25.0, stop=85.0, t0=0.0, t1=0.01)
                       if case == "ramp" else 40.0)
        Campaign(_lanes(rates, temperature)).run(GyroPlatform())
        assert set(idents) == {threading.get_ident()}
        assert len(idents) == len(rates)

    def test_more_threads_than_cpus_match_serial(self, kernel_backend,
                                                 any_round_size):
        # eight lane threads and a short switch interval: a lane that
        # touched another lane's state would change its result or state
        kernel_backend(kernel_backend.names[0])
        scenarios = _lanes([-40.0 + 10.0 * i for i in range(8)])
        for scenario, temperature in zip(scenarios, range(-20, 80, 12)):
            scenario.environment.temperature_c = ConstantProfile(
                float(temperature))
        spec = get_engine("compiled")
        outputs = []
        interval = sys.getswitchinterval()
        for threads in (1, 8):
            lanes = [GyroPlatform() for _ in scenarios]
            sys.setswitchinterval(1e-5)
            try:
                results = spec.run_fleet(
                    lanes, [s.environment for s in scenarios],
                    [s.duration_s for s in scenarios],
                    [True] * len(scenarios), threads)
            finally:
                sys.setswitchinterval(interval)
            outputs.append(([r.digest() for r in results],
                            [state_digest(lane) for lane in lanes]))
        assert outputs[0] == outputs[1]

    def test_first_failing_lane_raises(self, kernel_backend,
                                       any_round_size):
        # lane 1 fails after lane 3 has failed on another thread
        rates = [0.0, FailingRate("lane 1", delay_s=0.2), 10.0,
                 FailingRate("lane 3")]
        for _ in kernel_backend:
            with pytest.raises(LaneFailure, match="lane 1"):
                Campaign(_lanes(rates)).run(GyroPlatform())

    @pytest.mark.parametrize("lanes", [1, 4])
    def test_lanes_run_in_the_callers_context(self, kernel_backend,
                                              any_round_size, lanes):
        rates = ([OverflowingRate()] if lanes == 1
                 else [0.0, 10.0, OverflowingRate(), 20.0])
        for _ in kernel_backend:
            with np.errstate(over="raise"), \
                    pytest.raises(FloatingPointError):
                Campaign(_lanes(rates)).run(GyroPlatform())

    def test_errors_of_a_refused_temperature_come_from_the_lane(
            self, kernel_backend, any_round_size):
        # the prefetch skips a temperature the sensor refuses, so the
        # lane's own retune raises, in lane order
        scenarios = _lanes([0.0, 10.0])
        scenarios[1].environment.temperature_c = ConstantProfile(1.0e5)
        for _ in kernel_backend:
            with pytest.raises(ConfigurationError, match="must remain > 0"):
                Campaign(scenarios).run(GyroPlatform())


def never(platform) -> bool:
    """A stop condition that never holds: its lane pauses at every check."""
    return False


@functools.lru_cache(maxsize=None)
def started_snapshot() -> bytes:
    """The pickle of a platform started at 25 °C (started once)."""
    platform = GyroPlatform()
    platform.start()
    return pickle.dumps(platform)


_CONFIG = GyroPlatformConfig()
_DT = 1.0 / _CONFIG.sample_rate_hz
_DEC = _CONFIG.record_decimation
#: ``(engine, lane backend)``: the reference, and compiled on each backend
_ENGINES = [("reference", compiled.BACKEND)] + [
    ("compiled", backend)
    for backend in (("c", "python") if compiled.COMPILER else ("python",))]


@st.composite
def moving_stimulus(draw, n: int) -> Environment:
    """An environment whose rate or temperature moves within ``n`` samples.

    Edges fall on sample times ``m * dt``, where one continuous run reads
    them exactly.
    """
    kind = draw(st.sampled_from(["sine-rate", "ramp-rate",
                                 "ramp-temperature", "step", "piecewise"]))
    edges = sorted(draw(st.sets(st.integers(1, n - 1), min_size=2,
                                max_size=4)))
    t0, t1 = edges[0] * _DT, edges[-1] * _DT
    level = st.floats(-150.0, 150.0)
    rate, temperature = ConstantProfile(0.0), ConstantProfile(25.0)
    if kind == "sine-rate":
        rate = SineProfile(draw(level), draw(st.floats(5.0, 500.0)),
                           phase=draw(st.floats(0.0, 6.0)))
    elif kind == "ramp-rate":
        rate = RampProfile(draw(level), draw(level), t0, t1)
    elif kind == "ramp-temperature":
        temperature = RampProfile(25.0, draw(st.floats(-40.0, 85.0)), t0,
                                  t1)
    elif kind == "step":
        rate = StepProfile(draw(level), draw(level), t1)
    else:
        rate = PiecewiseProfile([(m * _DT, draw(level)) for m in edges])
    return Environment(rate_dps=rate, temperature_c=temperature)


@st.composite
def chunked_runs(draw):
    """``(environment, samples, samples per stop check, engine, backend)``;
    the stop checks fall on the record grid and split the run at least
    once."""
    blocks = draw(st.integers(4, 48))
    n = blocks * _DEC
    check = draw(st.integers(1, blocks - 1)) * _DEC
    engine, backend = draw(st.sampled_from(_ENGINES))
    return draw(moving_stimulus(n)), n, check, engine, backend


def _loop_state(platform) -> list:
    sense = platform.conditioner.sense_chain
    return (pack_scalar_state(platform).tolist()
            + biquad_values(sense.output_filter)[1]
            + biquad_values(sense.quadrature_filter)[1])


class TestChunkingIsInvisible:
    """A lane that pauses at stop checks reads its scenario's stimulus at
    its absolute sample times, so it ends where one continuous run ends,
    for every stimulus."""

    @QUICK_SETTINGS
    @given(run=chunked_runs())
    def test_chunked_lane_equals_one_continuous_run(self, run):
        environment, n, check, engine, backend = run
        continuous = pickle.loads(started_snapshot())
        lane = pickle.loads(started_snapshot())
        scenario = Scenario("chunked", environment, n * _DT, stop=never,
                            stop_check_s=check * _DT, record_waveforms=True)
        with mock.patch.object(compiled, "BACKEND", backend):
            want = continuous.run(environment, n * _DT,
                                  record_waveforms=True, engine=engine)
            got = Campaign([scenario]).run(platforms=[lane], engine=engine)
        got = got.lanes[0].outcomes[0].result
        # the record grid holds (the checks fall on it); the platform
        # clock adds n * dt per engine call, so time_s may differ in the
        # last bit
        for name, _ in want._TRACE_DTYPES:
            if name != "time_s":
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(want, name),
                                              err_msg=name)
        assert _loop_state(lane) == _loop_state(continuous)


@dataclasses.dataclass
class LinearRate(Profile):
    """A custom rate profile that implements only :meth:`Profile.sample`."""

    slope_dps_per_s: float = 4000.0

    def sample(self, t):
        return self.slope_dps_per_s * np.asarray(t, dtype=np.float64)


@dataclasses.dataclass
class ScalarLinearRate(Profile):
    """A custom rate profile that implements only :meth:`Profile.value`."""

    slope_dps_per_s: float = 4000.0

    def value(self, t):
        return self.slope_dps_per_s * t


class TestCustomProfiles:
    """Both engines evaluate a stimulus through ``Profile.sample`` only."""

    @pytest.mark.parametrize("profile", [LinearRate(), ScalarLinearRate()])
    def test_both_engines_run_a_custom_profile(self, kernel_backend,
                                               profile):
        environment = Environment(rate_dps=profile,
                                  temperature_c=ConstantProfile(30.0))
        want = GyroPlatform().run(environment, 0.004, engine="reference")
        for _ in kernel_backend:
            got = GyroPlatform().run(environment, 0.004)
            assert got.digest() == want.digest()
        assert profile.value(0.5) == 2000.0
        assert profile(0.25) == 1000.0

    def test_profile_without_an_evaluator_is_refused(self):
        with pytest.raises(NotImplementedError, match="neither"):
            Profile().value(0.0)

    def test_store_audit_replays_a_sample_only_profile(self, tmp_path):
        environment = Environment(rate_dps=LinearRate(),
                                  temperature_c=ConstantProfile(30.0))
        scenario = Scenario("linear", environment, 0.004, stop=never,
                            stop_check_s=0.001)
        store = ResultStore(str(tmp_path / "store"))
        stored = Campaign([scenario]).run(GyroPlatform(), store=store)
        reference = Campaign([scenario]).run(GyroPlatform(),
                                             engine="reference")
        assert (stored.lanes[0].outcomes[0].result.digest()
                == reference.lanes[0].outcomes[0].result.digest())
        report = store.audit()
        assert report.checked == 1
        assert len(report.verified_keys) == 1
        assert report.quarantined_keys == []


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
