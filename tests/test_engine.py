"""Tests for the fast co-simulation engines (``repro.engine``).

The compiled (generated) kernel promises *bit-identical* traces and
final platform state relative to the object-oriented reference loop,
for single platforms and campaign lanes on both lane backends (C and
generated Python, forced through the ``kernel_backend`` fixture).
These tests hold it to that on short runs covering lock-in,
temperature ramps, fixed-point (prototype) mode, closed-loop
rebalance, waveform recording, mixed-structure campaigns and early
lane retirement, check that a campaign lane equals a per-platform
``GyroPlatform.run`` (safe-mode monitor included), that bad input
raises the same exception type everywhere (also when a drift or
compensation row overflows), and check the
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

from repro.common import ConfigurationError, SimulationError
from repro.common.fixedpoint import QFormat
from repro.common.noise import BufferedGaussianNoise
from repro.dsp.compensation import TemperatureCompensationConfig
from repro.engine import compiled, run_compiled
from repro.engine.compiled import kernel_plan
from repro.engine.state import noise_sources, pack_scalar_state
from repro.platform import GyroPlatform, GyroPlatformConfig
from repro.scenarios import Campaign, Scenario
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


def _campaign_results(platforms, environments, durations_s,
                      record_waveforms=False):
    """Run one campaign lane per platform, in place; one result each."""
    programs = [Scenario(f"lane[{i}]", env, duration,
                         record_waveforms=record_waveforms)
                for i, (env, duration) in enumerate(zip(environments,
                                                        durations_s))]
    result = Campaign(programs).run(platforms=platforms)
    return [lane.outcomes[0].result for lane in result.lanes]


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
        c = ref.run(env, 0.03, engine="reference")
        for _ in kernel_backend:
            mixed = GyroPlatform()
            a2 = mixed.run(env, 0.03, engine=engine)
            b2 = mixed.run(env, 0.03, engine="reference")
            # the reference left every noise source mid-block: the fast
            # segment goes on with the values still pending in it
            assert all(0 < source._index < source._buffer.size
                       for source in noise_sources(mixed))
            c2 = mixed.run(env, 0.03, engine=engine)
            for expected, got in ((a, a2), (b, b2), (c, c2)):
                _assert_results_identical(expected, got)
            _assert_platform_state_identical(ref, mixed)
            assert [pickle.dumps(source) for source in noise_sources(ref)] \
                == [pickle.dumps(source) for source in noise_sources(mixed)]

    #: Cubic and quartic ``(offset_poly, sensitivity_poly)``.
    POLYNOMIALS = {3: ((0.0, 0.0, 0.0, 1e-7), (0.0, 0.0, 1e-8)),
                   4: ((0.0, 0.0, 0.0, 0.0, 1e-9), (0.0, 0.0, 0.0, 1e-10))}
    #: ``(resolution, degree) -> temperature`` where NumPy's array power
    #: of the quantised temperature deviation differs from CPython's
    POWERS_DIFFER = {(0.1, 3): 33.625, (0.1, 4): 41.525, (0.3, 3): 41.9,
                     (0.3, 4): 46.975}

    @pytest.mark.parametrize("resolution_c, degree", sorted(POWERS_DIFFER))
    def test_compensation_powers_at_non_dyadic_resolution(
            self, engine, kernel_backend, resolution_c, degree):
        # cubic and quartic compensation read dT ** k as CPython's float
        # power on every engine, whatever the temperature grid
        cfg = GyroPlatformConfig()
        cfg.temperature_sensor.resolution_c = resolution_c
        offset_poly, sensitivity_poly = self.POLYNOMIALS[degree]
        cfg.conditioner.sense.temperature = TemperatureCompensationConfig(
            offset_poly=offset_poly, sensitivity_poly=sensitivity_poly)
        temperature = self.POWERS_DIFFER[resolution_c, degree]
        _check_against_reference(engine, kernel_backend,
                                 Environment.still(temperature), 0.004, cfg)


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


class TestLockingScenarioAcceptance:
    """The acceptance run: the compiled engine and campaign lanes on
    both lane backends match the reference on lock time, amplitude and
    rate output for the Fig. 5 locking case."""

    def test_all_engines_agree_on_locking_run(self, kernel_backend):
        env = Environment.still()
        cfg = GyroPlatformConfig()
        ref = GyroPlatform(copy.deepcopy(cfg))
        com = GyroPlatform(copy.deepcopy(cfg))
        r_ref = ref.run(env, 0.4, engine="reference", reset=True)
        r_com = com.run(env, 0.4, engine="compiled", reset=True)
        locking = Scenario("locking", env, 0.4, reset=True)
        r_fleet = [Campaign([locking] * 2).run(
                       platforms=[GyroPlatform(copy.deepcopy(cfg))
                                  for _ in range(2)]).lanes[0]
                   .outcomes[0].result
                   for _ in kernel_backend]

        assert r_ref.pll_locked[-1]
        for other in (r_com, *r_fleet):
            assert abs(other.lock_time_s() - r_ref.lock_time_s()) <= 1e-9
            assert np.max(np.abs(other.amplitude_control
                                 - r_ref.amplitude_control)) <= 1e-9
            assert np.max(np.abs(other.rate_output_dps
                                 - r_ref.rate_output_dps)) <= 1e-9


class TestBatchEquivalence:
    """Campaign lanes on both lane backends against per-lane reference
    runs."""

    def test_heterogeneous_lanes_match_reference(self, kernel_backend):
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
        for _ in kernel_backend:
            lanes = [GyroPlatform(copy.deepcopy(cfg)) for _ in envs]
            results = _campaign_results(lanes, envs, [0.06] * len(envs))
            for (ref, r_ref), lane_result, lane_platform in zip(
                    refs, results, lanes):
                _assert_results_identical(r_ref, lane_result)
                _assert_platform_state_identical(ref, lane_platform)

    @pytest.mark.parametrize("mode", ["fixed_point", "closed_loop"])
    def test_batch_matches_reference_in_special_modes(self, mode,
                                                      kernel_backend):
        # the quantisers and the rebalance branch are generated only for
        # these plans; hold them to the reference like the default path
        cfg = GyroPlatformConfig()
        setattr(cfg.conditioner, mode, True)
        env = Environment.constant_rate(60.0)
        ref = GyroPlatform(copy.deepcopy(cfg))
        r_ref = ref.run(env, 0.05, engine="reference")
        for _ in kernel_backend:
            lanes = [GyroPlatform(copy.deepcopy(cfg)) for _ in range(2)]
            results = _campaign_results(lanes, [env] * 2, [0.05] * 2)
            _assert_results_identical(r_ref, results[0])
            _assert_platform_state_identical(ref, lanes[0])

    @pytest.mark.parametrize("bad", [0.0, -0.01, math.nan, math.inf])
    def test_bad_durations_rejected(self, bad):
        # every engine rejects a bad duration before the power cycle
        for engine in ("reference", "compiled"):
            platform = GyroPlatform()
            platform.run(Environment.still(), 0.002)
            with pytest.raises(ConfigurationError, match="duration"):
                platform.run(Environment.still(), bad, reset=True,
                             engine=engine)
            assert platform.now == pytest.approx(0.002)

    def test_retired_lanes_match_standalone_runs(self, kernel_backend):
        # lanes shorter than the longest retire mid-campaign: each must
        # end exactly where a standalone run of its own length ends,
        # noise generator positions included (the follow-on run shows
        # those)
        cfg = GyroPlatformConfig()
        envs = [Environment.still(),
                Environment.constant_rate(90.0),
                Environment(rate_dps=SineProfile(amplitude=60.0,
                                                 frequency_hz=40.0),
                            temperature_c=RampProfile(start=25.0, stop=45.0,
                                                      t0=0.0, t1=0.05))]
        durations = [0.02, 0.05, 0.035]
        follow_on = Environment.constant_rate(30.0)
        for _ in kernel_backend:
            lanes = [GyroPlatform(copy.deepcopy(cfg)) for _ in envs]
            results = _campaign_results(lanes, envs, durations)
            for env, duration, result, lane in zip(envs, durations, results,
                                                   lanes):
                solo = GyroPlatform(copy.deepcopy(cfg))
                _assert_results_identical(
                    solo.run(env, duration, engine="reference"), result)
                _assert_platform_state_identical(solo, lane)
                np.testing.assert_array_equal(pack_scalar_state(lane),
                                              pack_scalar_state(solo))
                _assert_results_identical(
                    solo.run(follow_on, 0.01, engine="reference"),
                    lane.run(follow_on, 0.01, engine="reference"))

    def test_waveform_recording(self, kernel_backend):
        cfg = GyroPlatformConfig()
        ref = GyroPlatform(copy.deepcopy(cfg))
        r_ref = ref.run(Environment.still(), 0.02, engine="reference",
                        record_waveforms=True)
        for _ in kernel_backend:
            lanes = [GyroPlatform(copy.deepcopy(cfg)) for _ in range(2)]
            results = _campaign_results(lanes, [Environment.still()] * 2,
                                        [0.02] * 2, record_waveforms=True)
            _assert_results_identical(r_ref, results[0], waveforms=True)

    def test_mixed_structure_fleet_matches_reference(self, kernel_backend):
        # one campaign mixing sample rates, loop topologies, fixed-point
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
        for _ in kernel_backend:
            lanes = build()
            results = _campaign_results(lanes, envs, durations)
            for (ref, r_ref), result, lane in zip(refs, results, lanes):
                _assert_results_identical(r_ref, result)
                _assert_platform_state_identical(ref, lane)
                np.testing.assert_array_equal(pack_scalar_state(lane),
                                              pack_scalar_state(ref))

    def test_fleet_lanes_equal_platform_runs(self):
        # a campaign lane carries the same safe-mode monitor state as a
        # per-platform run: one lane saturated into safe mode, one clean
        def lanes():
            saturated, clean = GyroPlatform(), GyroPlatform()
            saturated.frontend.config.charge_amplifier.offset_v = 10.0
            return [saturated, clean]

        env = Environment.constant_rate(30.0)
        solo = lanes()
        expected = [platform.run(env, 0.05) for platform in solo]
        assert expected[0].safe_mode and not expected[1].safe_mode
        fleet = lanes()
        results = _campaign_results(fleet, [env] * 2, [0.05] * 2)
        for want, got, ref, lane in zip(expected, results, solo, fleet):
            assert got.digest() == want.digest()
            assert lane.safety.result_fields() == ref.safety.result_fields()
            assert lane.safety.registers.dump() == ref.safety.registers.dump()
            _assert_platform_state_identical(ref, lane)

    def test_monte_carlo_fleet_lanes_differ(self):
        rng = np.random.default_rng(7)
        lanes = [GyroPlatform(GyroPlatformConfig().with_part_variation(rng))
                 for _ in range(3)]
        gains = {p.sensor.params.pickoff_gain_v_per_m for p in lanes}
        assert len(gains) == 3
        results = _campaign_results(lanes, [Environment.still()] * 3,
                                    [0.02] * 3)
        assert len(results) == 3
        # different devices, different traces
        assert not np.array_equal(results[0].amplitude_control,
                                  results[1].amplitude_control)


#: The DSP monitor registers, which each run publishes at its end.
MONITORS = ("dsp_status", "dsp_rate_out", "dsp_amplitude", "dsp_vco_control",
            "dsp_phase_error", "dsp_quadrature", "dsp_drive_gain")


def _monitor_values(platform) -> dict:
    values = {name: platform.conditioner.registers.read(name)
              for name in MONITORS}
    values["afe_status"] = platform.frontend.trim.read("afe_status")
    return values


@pytest.fixture(scope="module")
def started_platform():
    platform = GyroPlatform()
    platform.start()
    return platform


class TestMonitorRegisters:
    # 1,000 and 7 samples are not a multiple of the conditioner's
    # status_update_interval (64), which only the reference loop reads
    @pytest.mark.parametrize("samples", [1000, 64, 7])
    def test_equal_after_equal_runs(self, started_platform, kernel_backend,
                                    samples):
        environment = Environment.constant_rate(40.0, 30.0)
        duration_s = samples / started_platform.config.sample_rate_hz
        reference = copy.deepcopy(started_platform)
        reference.run(environment, duration_s, engine="reference")
        want = _monitor_values(reference)
        for _ in kernel_backend:
            lane = copy.deepcopy(started_platform)
            lane.run(environment, duration_s)
            assert _monitor_values(lane) == want


class TestVectorisedHelpers:
    def test_environment_sample_matches_value(self):
        # each built-in profile against its definition, evaluated one
        # time at a time; value(t) is the base class's sample([t])[0]
        def ramp(t):
            if t <= 0.1:
                return -5.0
            if t >= 0.7:
                return 5.0
            return -5.0 + (t - 0.1) / (0.7 - 0.1) * (5.0 - -5.0)

        cases = [
            (ConstantProfile(3.5), lambda t: 3.5),
            (StepProfile(before=0.0, after=20.0, step_time=0.4),
             lambda t: 20.0 if t >= 0.4 else 0.0),
            (RampProfile(start=-5.0, stop=5.0, t0=0.1, t1=0.7), ramp),
            (SineProfile(amplitude=10.0, frequency_hz=3.0, offset=1.0),
             lambda t: 1.0 + 10.0 * np.sin(2.0 * np.pi * 3.0 * t + 0.0)),
            (PiecewiseProfile(breakpoints=((0.0, 1.0), (0.3, -2.0),
                                           (0.6, 4.0))),
             lambda t: 4.0 if t >= 0.6 else -2.0 if t >= 0.3 else 1.0),
        ]
        t = np.linspace(-0.1, 1.1, 257)
        for profile, definition in cases:
            scalar = np.array([definition(ti) for ti in t.tolist()])
            np.testing.assert_array_equal(profile.sample(t), scalar,
                                          err_msg=repr(profile))
            assert [profile.value(ti) for ti in t.tolist()] \
                == scalar.tolist()

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


def _adc(**fields):
    """A platform whose ADCs have the given config ``fields``."""
    cfg = GyroPlatformConfig()
    for name, value in fields.items():
        setattr(cfg.frontend.adc, name, value)
    return GyroPlatform(cfg)


def _charge_amp(**fields):
    """A platform whose charge amplifiers have the given config ``fields``."""
    cfg = GyroPlatformConfig()
    for name, value in fields.items():
        setattr(cfg.frontend.charge_amplifier, name, value)
    return GyroPlatform(cfg)


def _compensation(**polys):
    """A platform with the given temperature-compensation polynomials."""
    platform = GyroPlatform()
    platform.conditioner.sense_chain.calibrate_temperature(
        TemperatureCompensationConfig(**polys))
    return platform


#: Platforms whose drift or compensation rows leave the finite range:
#: ``case -> (platform factory, temperature, exception)``.  With an
#: exception every path raises it; with ``None`` every path runs to the
#: same result and state, as the reference's Python floats turn the
#: overflow into inf silently.
_OVERFLOWING_ROWS = {
    # an infinite ADC reading makes Python's rounding raise
    "adc-gain-error-huge": (lambda: _adc(gain_error=1.7e308), 25.0,
                            SimulationError),
    "adc-gain-error-inf": (lambda: _adc(gain_error=math.inf), 25.0,
                           SimulationError),
    "adc-gain-drift-inf": (lambda: _adc(gain_tc_ppm_per_c=math.inf), 80.0,
                           SimulationError),
    "adc-offset-drift-inf": (lambda: _adc(offset_tc_v_per_c=math.inf),
                             80.0, SimulationError),
    "adc-offset-drift-huge": (lambda: _adc(offset_tc_v_per_c=1e307), 80.0,
                              SimulationError),
    # a product that overflows is inf, silently; an infinite offset then
    # drives the loop non-finite, an infinite divisor does not
    "offset-poly-product": (
        lambda: _compensation(offset_poly=(0.0, 0.0, 1e305)), 80.0,
        SimulationError),
    "sensitivity-poly-product": (
        lambda: _compensation(sensitivity_poly=(0.0, 1e305)), 80.0, None),
    "charge-amp-drift-product": (
        lambda: _charge_amp(offset_tc_v_per_c=1e307), 80.0, None),
    # a power that overflows: Python's float ** int raises
    "sensitivity-poly-power": (
        lambda: _compensation(sensitivity_poly=(1e-300,) * 100), 2000.0,
        SimulationError),
    # the sensitivity correction reaches zero: the reference's compensation
    # raises (the sensor reads 88.7 °C as 89.0, dT = 64)
    "sensitivity-zero": (
        lambda: _compensation(sensitivity_poly=(-1.0 / 64.0,)), 88.7,
        ConfigurationError),
}


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

    @staticmethod
    def _streams(platform) -> bytes:
        """Where the platform's noise sources stand, as pickle bytes."""
        return pickle.dumps(noise_sources(platform))

    @QUICK_SETTINGS
    @given(case=bad_stimulus())
    def test_same_input_same_exception_type(self, case):
        environment, expected = case
        streams = set()
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
                streams.add(self._streams(platform))
        # both backends leave the noise sources where the other does
        assert len(streams) <= 1

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
        with pytest.raises(ConfigurationError, match="divides by"):
            _campaign_results([broken(), broken()],
                              [Environment.still()] * 2, [0.001] * 2)

    @pytest.mark.parametrize("case", sorted(_OVERFLOWING_ROWS))
    def test_overflowing_rows_same_outcome_on_every_path(self, case):
        make, temperature, expected = _OVERFLOWING_ROWS[case]
        environment = Environment.still(temperature)
        outcomes = set()
        for engine in self._paths():
            # a good run first, so the C path runs its cached library
            GyroPlatform().run(Environment.still(), 0.001, engine=engine)
            platform = make()
            before = pack_scalar_state(platform)
            if expected is None:
                result = platform.run(environment, 0.002, engine=engine)
                outcomes.add((result.digest(),
                              pack_scalar_state(platform).tobytes(),
                              self._streams(platform)))
                continue
            with pytest.raises(expected):
                platform.run(environment, 0.002, engine=engine)
            if engine == "compiled":
                np.testing.assert_array_equal(pack_scalar_state(platform),
                                              before)
                # both backends leave the noise sources where the other
                # does, wherever in the chunk the loop stopped
                outcomes.add(self._streams(platform))
        assert len(outcomes) <= 1
