"""Tests for the fast co-simulation engines (``repro.engine``).

The compiled (generated) kernel promises *bit-identical* traces and
final platform state relative to the object-oriented reference loop,
for single platforms on both lane backends (C and generated Python,
forced through the ``kernel_backend`` fixture) and for fleets in both
layouts (lockstep and lane by lane, forced through the ``fleet_layout``
fixture, which visits the lane layout once per backend).  These tests
hold it to that on short runs covering lock-in, temperature ramps,
fixed-point (prototype) mode, closed-loop rebalance, waveform
recording, mixed-structure fleets and early lane retirement, check
that bad input raises the same exception type everywhere, and check the
supporting vectorised helpers (``Environment.sample``,
``BufferedGaussianNoise.take``) against their scalar counterparts —
including that noise sources pickle and copy without losing or
repeating a value, and pickle by stream position alone.
"""

import copy
import dataclasses
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from strategies.settings import QUICK_SETTINGS, STANDARD_SETTINGS
from strategies.stimulus import bad_stimulus

from repro.common import ConfigurationError
from repro.common.fixedpoint import QFormat
from repro.common.noise import BufferedGaussianNoise
from repro.engine import FleetSimulator, compiled, run_compiled
from repro.engine.compiled import kernel_plan
from repro.engine.state import pack_scalar_state
from repro.platform import GyroPlatform, GyroPlatformConfig
from repro.sensors import Environment
from repro.sensors.environment import (
    ConstantProfile,
    PiecewiseProfile,
    RampProfile,
    SineProfile,
    StepProfile,
)

TRACE_FIELDS = (
    "time_s", "true_rate_dps", "temperature_c", "rate_output_dps",
    "rate_output_v", "amplitude_control", "amplitude_error", "phase_error",
    "vco_control", "pll_locked", "running",
)


def _assert_results_identical(a, b, waveforms=False):
    for name in TRACE_FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name),
                                      err_msg=name)
    if waveforms:
        np.testing.assert_array_equal(a.primary_pickoff_norm,
                                      b.primary_pickoff_norm)
        np.testing.assert_array_equal(a.drive_word, b.drive_word)
    assert a.turn_on_time_s == b.turn_on_time_s
    assert a.sample_rate_hz == b.sample_rate_hz


def _assert_platform_state_identical(a, b):
    assert a.now == b.now
    assert a._drive_v == b._drive_v
    assert a._control_v == b._control_v
    pa, pb = a.conditioner.drive_loop.pll, b.conditioner.drive_loop.pll
    assert pa.frequency_hz == pb.frequency_hz
    assert pa.amplitude_estimate == pb.amplitude_estimate
    assert pa.locked == pb.locked
    sa, sb = a.conditioner.sense_chain, b.conditioner.sense_chain
    assert sa.rate_channel == sb.rate_channel
    assert sa.rate_dps == sb.rate_dps
    assert a.conditioner.running == b.conditioner.running
    assert (a.sensor.primary._displacement == b.sensor.primary._displacement)
    assert (a.sensor.secondary._velocity == b.sensor.secondary._velocity)


def _pair(config=None):
    cfg = config or GyroPlatformConfig()
    return (GyroPlatform(copy.deepcopy(cfg)), GyroPlatform(copy.deepcopy(cfg)))


def _check_against_reference(engine, kernel_backend, env, duration,
                             config=None, state=True, waveforms=False):
    """One reference run against a fresh ``engine`` run per lane backend."""
    cfg = config or GyroPlatformConfig()
    ref = GyroPlatform(copy.deepcopy(cfg))
    r_ref = ref.run(env, duration, engine="reference",
                    record_waveforms=waveforms)
    for _ in kernel_backend:
        fast = GyroPlatform(copy.deepcopy(cfg))
        r_fast = fast.run(env, duration, engine=engine,
                          record_waveforms=waveforms)
        _assert_results_identical(r_ref, r_fast, waveforms=waveforms)
        if state:
            _assert_platform_state_identical(ref, fast)
            np.testing.assert_array_equal(pack_scalar_state(fast),
                                          pack_scalar_state(ref))


@pytest.mark.parametrize("engine", ["compiled"])
class TestScalarEngineEquivalence:
    """Every scalar fast engine must match the reference loop bit for bit
    (the ``compiled`` rows run on every lane backend this host has: the C
    kernels and the generated-Python fallback)."""

    def test_lockin_traces_bit_identical(self, engine, kernel_backend):
        _check_against_reference(engine, kernel_backend, Environment.still(),
                                 0.1)

    def test_rate_and_temperature_ramp(self, engine, kernel_backend):
        # exercises the sensor temperature-retune plan and the
        # temperature-compensation paths
        env = Environment(
            rate_dps=RampProfile(start=-100.0, stop=100.0, t0=0.0, t1=0.06),
            temperature_c=RampProfile(start=25.0, stop=65.0, t0=0.0, t1=0.06))
        _check_against_reference(engine, kernel_backend, env, 0.08)

    def test_fixed_point_mode(self, engine, kernel_backend):
        cfg = GyroPlatformConfig()
        cfg.conditioner.fixed_point = True
        _check_against_reference(engine, kernel_backend,
                                 Environment.constant_rate(50.0), 0.06, cfg)

    def test_closed_loop_mode(self, engine, kernel_backend):
        cfg = GyroPlatformConfig()
        cfg.conditioner.closed_loop = True
        _check_against_reference(engine, kernel_backend,
                                 Environment.constant_rate(80.0), 0.06, cfg)

    def test_waveform_recording(self, engine, kernel_backend):
        _check_against_reference(engine, kernel_backend, Environment.still(),
                                 0.04, state=False, waveforms=True)

    def test_engines_interleave_on_one_platform(self, engine,
                                                kernel_backend):
        # a fast-engine segment must leave the platform exactly where a
        # reference segment would, so segments can be mixed freely
        env = Environment.rate_step(120.0, step_time=0.03)
        ref = GyroPlatform()
        a = ref.run(env, 0.03, engine="reference")
        b = ref.run(env, 0.03, engine="reference")
        for _ in kernel_backend:
            mixed = GyroPlatform()
            c = mixed.run(env, 0.03, engine=engine)
            d = mixed.run(env, 0.03, engine="reference")
            _assert_results_identical(a, c)
            _assert_results_identical(b, d)
            _assert_platform_state_identical(ref, mixed)


class TestEngineSelection:
    def test_run_compiled_entrypoint_matches_run(self):
        ref, com = _pair()
        env = Environment.still()
        r1 = ref.run(env, 0.02)
        r2 = run_compiled(com, env, 0.02)
        _assert_results_identical(r1, r2)

    def test_bad_engine_rejected(self):
        platform = GyroPlatform()
        with pytest.raises(ConfigurationError):
            platform.run(Environment.still(), 0.01, engine="warp")
        with pytest.raises(ConfigurationError):
            GyroPlatformConfig(engine="warp")

    def test_bad_engine_rejected_before_reset(self):
        # a typo'd engine name must not wipe the platform state even with
        # reset=True: validation happens before the power cycle
        platform = GyroPlatform()
        platform.run(Environment.still(), 0.02)
        with pytest.raises(ConfigurationError):
            platform.run(Environment.still(), 0.01, reset=True, engine="fuse")
        assert platform.now == pytest.approx(0.02)

    def test_run_sequence_waveforms_passthrough(self):
        platform = GyroPlatform()
        results = platform.run([Environment.still()], 0.02,
                               record_waveforms=True)
        assert results[0].primary_pickoff_norm is not None
        assert results[0].drive_word is not None


class TestLockingScenarioAcceptance:
    """The acceptance run: the compiled engine and both fleet layouts
    match the reference on lock time, amplitude and rate output for the
    Fig. 5 locking case."""

    def test_all_engines_agree_on_locking_run(self, fleet_layout):
        env = Environment.still()
        cfg = GyroPlatformConfig()
        ref = GyroPlatform(copy.deepcopy(cfg))
        com = GyroPlatform(copy.deepcopy(cfg))
        r_ref = ref.run(env, 0.4, engine="reference", reset=True)
        r_com = com.run(env, 0.4, engine="compiled", reset=True)
        r_fleet = [FleetSimulator.from_config(cfg, 2).run(env, 0.4,
                                                          reset=True)[0]
                   for _ in fleet_layout]

        assert r_ref.pll_locked[-1]
        for other in (r_com, *r_fleet):
            assert abs(other.lock_time_s() - r_ref.lock_time_s()) <= 1e-9
            assert np.max(np.abs(other.amplitude_control
                                 - r_ref.amplitude_control)) <= 1e-9
            assert np.max(np.abs(other.rate_output_dps
                                 - r_ref.rate_output_dps)) <= 1e-9


class TestBatchEquivalence:
    """Fleets in both layouts against per-lane reference runs."""

    def test_heterogeneous_lanes_match_reference(self, fleet_layout):
        cfg = GyroPlatformConfig()
        envs = [Environment.still(),
                Environment.constant_rate(150.0),
                Environment(rate_dps=SineProfile(amplitude=80.0,
                                                 frequency_hz=30.0),
                            temperature_c=ConstantProfile(40.0))]
        refs = []
        for env in envs:
            ref = GyroPlatform(copy.deepcopy(cfg))
            refs.append((ref, ref.run(env, 0.06, engine="reference")))
        for _ in fleet_layout:
            fleet = FleetSimulator.from_config(cfg, len(envs))
            results = fleet.run(envs, 0.06)
            for (ref, r_ref), lane_result, lane_platform in zip(
                    refs, results, fleet.platforms):
                _assert_results_identical(r_ref, lane_result)
                _assert_platform_state_identical(ref, lane_platform)

    def test_single_environment_broadcasts(self, fleet_layout):
        for _ in fleet_layout:
            fleet = FleetSimulator.from_config(GyroPlatformConfig(), 3)
            results = fleet.run(Environment.still(), 0.02)
            assert len(results) == 3
            _assert_results_identical(results[0], results[1])
            _assert_results_identical(results[0], results[2])

    def test_run_sequence_platform_method(self, fleet_layout):
        platform = GyroPlatform()
        envs = [Environment.constant_rate(r) for r in (-50.0, 0.0, 50.0)]
        ref = GyroPlatform(copy.deepcopy(platform.config))
        r_ref = ref.run(envs[1], 0.02, engine="reference", reset=True)
        for _ in fleet_layout:
            results = platform.run(envs, 0.02)
            assert len(results) == len(envs)
            _assert_results_identical(r_ref, results[1])

    @pytest.mark.parametrize("mode", ["fixed_point", "closed_loop"])
    def test_batch_matches_reference_in_special_modes(self, mode,
                                                      fleet_layout):
        # the quantisers and the rebalance branch render differently in
        # the lockstep layout; hold them to the reference like the
        # default path
        cfg = GyroPlatformConfig()
        setattr(cfg.conditioner, mode, True)
        env = Environment.constant_rate(60.0)
        ref = GyroPlatform(copy.deepcopy(cfg))
        r_ref = ref.run(env, 0.05, engine="reference")
        for _ in fleet_layout:
            fleet = FleetSimulator.from_config(cfg, 2)
            results = fleet.run(env, 0.05)
            _assert_results_identical(r_ref, results[0])
            _assert_platform_state_identical(ref, fleet.platforms[0])

    def test_run_sequence_continues_from_platform_state(self, fleet_layout):
        # regression: a sequence run must carry the platform's calibration
        # and runtime state into the lanes, not restart from the bare config
        warm = GyroPlatform()
        warm.run(Environment.still(), 0.04)  # advance filters, PLL, startup
        warm.conditioner.sense_chain.calibrate_scale(3.0e-5)
        dedicated = copy.deepcopy(warm)
        env = Environment.constant_rate(75.0)
        r_ref = dedicated.run(env, 0.03, engine="reference")
        for _ in fleet_layout:
            results = warm.run([env, Environment.still()], 0.03)
            _assert_results_identical(r_ref, results[0])
            # the source platform itself is not advanced by a sequence run
            assert warm.now == pytest.approx(0.04)

    def test_environment_count_mismatch_rejected(self):
        fleet = FleetSimulator.from_config(GyroPlatformConfig(), 2)
        with pytest.raises(ConfigurationError):
            fleet.run([Environment.still()], 0.01)

    @pytest.mark.parametrize("bad", [0.0, -0.01, math.nan, math.inf])
    def test_bad_durations_rejected(self, bad):
        fleet = FleetSimulator.from_config(GyroPlatformConfig(), 2)
        with pytest.raises(ConfigurationError):
            fleet.run(Environment.still(), bad)
        with pytest.raises(ConfigurationError):
            fleet.run(Environment.still(), [0.01, bad])

    def test_retired_lanes_match_standalone_runs(self, fleet_layout):
        # lanes shorter than the longest retire mid-run: each must end
        # exactly where a standalone run of its own length ends, noise
        # generator positions included (the follow-on run shows those)
        cfg = GyroPlatformConfig()
        envs = [Environment.still(),
                Environment.constant_rate(90.0),
                Environment(rate_dps=SineProfile(amplitude=60.0,
                                                 frequency_hz=40.0),
                            temperature_c=RampProfile(start=25.0, stop=45.0,
                                                      t0=0.0, t1=0.05))]
        durations = [0.02, 0.05, 0.035]
        follow_on = Environment.constant_rate(30.0)
        for _ in fleet_layout:
            fleet = FleetSimulator.from_config(cfg, len(envs))
            results = fleet.run(envs, durations)
            for env, duration, result, lane in zip(envs, durations, results,
                                                   fleet.platforms):
                solo = GyroPlatform(copy.deepcopy(cfg))
                _assert_results_identical(
                    solo.run(env, duration, engine="reference"), result)
                _assert_platform_state_identical(solo, lane)
                np.testing.assert_array_equal(pack_scalar_state(lane),
                                              pack_scalar_state(solo))
                _assert_results_identical(
                    solo.run(follow_on, 0.01, engine="reference"),
                    lane.run(follow_on, 0.01, engine="reference"))

    def test_waveform_recording(self, fleet_layout):
        cfg = GyroPlatformConfig()
        ref = GyroPlatform(copy.deepcopy(cfg))
        r_ref = ref.run(Environment.still(), 0.02, engine="reference",
                        record_waveforms=True)
        for _ in fleet_layout:
            fleet = FleetSimulator.from_config(cfg, 2)
            results = fleet.run(Environment.still(), 0.02,
                                record_waveforms=True)
            _assert_results_identical(r_ref, results[0], waveforms=True)

    def test_mixed_structure_fleet_matches_reference(self, fleet_layout):
        # one fleet mixing sample rates, loop topologies, fixed-point
        # formats (a Q1.6 NCO set on the live block) and an
        # overflow="error" lane that delegates to the reference loop:
        # every lane must equal its own reference run
        fixed = GyroPlatformConfig()
        fixed.conditioner.fixed_point = True
        closed = GyroPlatformConfig()
        closed.conditioner.closed_loop = True

        def build():
            lanes = [GyroPlatform(GyroPlatformConfig()),
                     GyroPlatform(GyroPlatformConfig()),
                     GyroPlatform(GyroPlatformConfig(sample_rate_hz=100_000.0)),
                     GyroPlatform(GyroPlatformConfig(sample_rate_hz=100_000.0)),
                     GyroPlatform(copy.deepcopy(closed)),
                     GyroPlatform(copy.deepcopy(fixed)),
                     GyroPlatform(copy.deepcopy(fixed))]
            lanes[5].conditioner.drive_loop.pll.nco.output_format = \
                QFormat(1, 6)
            scaler = lanes[6].conditioner.sense_chain.scaler
            scaler.output_format = dataclasses.replace(
                scaler.output_format, overflow="error")
            return lanes

        envs = [Environment.still(), Environment.constant_rate(70.0),
                Environment.constant_rate(-40.0), Environment.still(30.0),
                Environment.constant_rate(80.0),
                Environment.constant_rate(50.0), Environment.still()]
        durations = [0.03, 0.02, 0.03, 0.0123456, 0.025, 0.02, 0.02]
        refs = []
        for lane, env, duration in zip(build(), envs, durations):
            refs.append((lane, lane.run(env, duration, engine="reference")))
        # default (at two rates), closed loop, fixed point, error format
        assert len({kernel_plan(lane) for lane, _ in refs}) == 4
        for _ in fleet_layout:
            fleet = FleetSimulator(build())
            results = fleet.run(envs, durations)
            for (ref, r_ref), result, lane in zip(refs, results,
                                                  fleet.platforms):
                _assert_results_identical(r_ref, result)
                _assert_platform_state_identical(ref, lane)
                np.testing.assert_array_equal(pack_scalar_state(lane),
                                              pack_scalar_state(ref))
        with pytest.raises(ConfigurationError):
            FleetSimulator([])

    def test_monte_carlo_fleet_lanes_differ(self):
        rng = np.random.default_rng(7)
        fleet = FleetSimulator.with_part_variation(GyroPlatformConfig(), 3,
                                                   rng=rng)
        gains = {p.sensor.params.pickoff_gain_v_per_m
                 for p in fleet.platforms}
        assert len(gains) == 3
        results = fleet.run(Environment.still(), 0.02)
        assert len(results) == 3
        # different devices, different traces
        assert not np.array_equal(results[0].amplitude_control,
                                  results[1].amplitude_control)


class TestVectorisedHelpers:
    def test_environment_sample_matches_value(self):
        profiles = [
            ConstantProfile(3.5),
            StepProfile(before=0.0, after=20.0, step_time=0.4),
            RampProfile(start=-5.0, stop=5.0, t0=0.1, t1=0.7),
            SineProfile(amplitude=10.0, frequency_hz=3.0, offset=1.0),
            PiecewiseProfile(breakpoints=((0.0, 1.0), (0.3, -2.0),
                                          (0.6, 4.0))),
        ]
        t = np.linspace(-0.1, 1.1, 257)
        for profile in profiles:
            sampled = profile.sample(t)
            scalar = np.array([profile.value(float(ti)) for ti in t])
            np.testing.assert_array_equal(sampled, scalar, err_msg=repr(profile))

    def test_environment_sample_tuple(self):
        env = Environment(rate_dps=RampProfile(start=0.0, stop=90.0,
                                               t0=0.0, t1=1.0),
                          temperature_c=ConstantProfile(30.0))
        t = np.linspace(0.0, 1.0, 11)
        rate, temp = env.sample(t)
        np.testing.assert_array_equal(
            rate, [env.rate_dps.value(float(ti)) for ti in t])
        np.testing.assert_array_equal(temp, np.full(11, 30.0))

    def test_noise_take_matches_next(self):
        a = BufferedGaussianNoise(sigma=0.3, seed=99, block_size=64)
        b = BufferedGaussianNoise(sigma=0.3, seed=99, block_size=64)
        scalar = np.array([a.next() for _ in range(200)])
        np.testing.assert_array_equal(b.take(200), scalar)

    def test_noise_take_interleaves_with_next(self):
        a = BufferedGaussianNoise(sigma=1.0, seed=5, block_size=32)
        b = BufferedGaussianNoise(sigma=1.0, seed=5, block_size=32)
        scalar = np.array([a.next() for _ in range(100)])
        mixed = np.concatenate([
            b.take(10),
            [b.next() for _ in range(7)],
            b.take(83),
        ])
        np.testing.assert_array_equal(mixed, scalar)

    def test_noise_take_zero_sigma_and_empty(self):
        g = BufferedGaussianNoise(sigma=0.0, seed=1)
        np.testing.assert_array_equal(g.take(5), np.zeros(5))
        g2 = BufferedGaussianNoise(sigma=1.0, seed=1)
        assert g2.take(0).size == 0
        with pytest.raises(ConfigurationError):
            g2.take(-1)

    @STANDARD_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1),
           sigma=st.sampled_from([0.0, 1e-3, 1.0, 7.5]),
           block_size=st.integers(1, 9),
           ops=st.lists(st.one_of(
               st.just("next"), st.just("pickle"), st.just("deepcopy"),
               st.integers(0, 20)), max_size=40))
    def test_noise_stream_survives_any_consumption(self, seed, sigma,
                                                   block_size, ops):
        # every mix of per-sample draws, chunked takes, pickle round
        # trips and deep copies hands out one long draw's values, none
        # lost or repeated
        g = BufferedGaussianNoise(sigma, seed, block_size)
        values = []
        for op in ops:
            if op == "next":
                values.append(g.next())
            elif op == "pickle":
                g = pickle.loads(pickle.dumps(g))
            elif op == "deepcopy":
                g = copy.deepcopy(g)
            else:
                values.extend(g.take(op))
        expected = np.random.default_rng(seed).normal(0.0, sigma,
                                                      len(values))
        np.testing.assert_array_equal(np.array(values), expected)

    @STANDARD_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), block_size=st.integers(1, 9),
           nexts=st.integers(0, 30), takes=st.lists(st.integers(0, 12),
                                                    max_size=4))
    def test_noise_pickles_by_stream_position(self, seed, block_size,
                                              nexts, takes):
        # a source mid-block and a source that never had a block pickle
        # to the same bytes at the same stream position
        by_next = BufferedGaussianNoise(0.5, seed, block_size)
        by_take = BufferedGaussianNoise(0.5, seed, block_size)
        position = nexts + sum(takes)
        for _ in range(nexts):
            by_next.next()
        for k in takes:
            by_next.take(k)
        by_take.take(position)
        assert pickle.dumps(by_next) == pickle.dumps(by_take)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTypedErrors:
    """Bad input raises the same exception type on every engine and
    backend, before any state is written back — and nothing warns
    first."""

    PATHS = (("reference", None), ("compiled", "python"), ("compiled", "c"))

    def _paths(self):
        for engine, backend in self.PATHS:
            if backend == "c" and not compiled.COMPILER:
                continue
            with mock.patch.object(compiled, "BACKEND",
                                   backend or compiled.BACKEND):
                yield engine

    @QUICK_SETTINGS
    @given(case=bad_stimulus())
    def test_same_input_same_exception_type(self, case):
        environment, expected = case
        for engine in self._paths():
            # a good run first, so the C path runs its cached library
            GyroPlatform().run(Environment.still(), 0.001, engine=engine)
            platform = GyroPlatform()
            before = pack_scalar_state(platform)
            with pytest.raises(expected):
                platform.run(environment, 0.005, engine=engine)
            if engine == "compiled":
                np.testing.assert_array_equal(pack_scalar_state(platform),
                                              before)

    @pytest.mark.parametrize("breaks", ["adc_lsb", "full_scale"])
    def test_zero_divisor_rejected_on_every_engine(self, breaks):
        def broken():
            platform = GyroPlatform()
            if breaks == "adc_lsb":
                platform.frontend.primary_adc._lsb = 0.0
            else:
                platform.conditioner.sense_chain.scaler.config \
                    .full_scale_dps = math.nan
            return platform

        for engine in self._paths():
            with pytest.raises(ConfigurationError, match="divides by"):
                broken().run(Environment.still(), 0.001, engine=engine)
        for crossover in (1, math.inf):
            with mock.patch.object(compiled, "LOCKSTEP_CROSSOVER",
                                   crossover):
                with pytest.raises(ConfigurationError, match="divides by"):
                    FleetSimulator([broken(), broken()]).run(
                        Environment.still(), 0.001)
