"""Tests for the sensor models (resonator, gyro, generic elements, environment)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ConfigurationError
from repro.sensors import (
    CapacitivePressureSensor,
    ConstantProfile,
    Environment,
    GyroParameters,
    InductivePositionSensor,
    PiecewiseProfile,
    RampProfile,
    ResistiveBridgeSensor,
    ResonatorMode,
    SensingElementSpec,
    SineProfile,
    StepProfile,
    VibratingRingGyro,
)
from repro.sensors import resonator

FS = 120_000.0


@pytest.fixture
def expm_calls(monkeypatch):
    """An empty propagator memo whose ``expm`` calls are recorded."""
    calls = []
    expm = resonator.expm

    def counted(matrix):
        calls.append(matrix)
        return expm(matrix)

    monkeypatch.setattr(resonator, "expm", counted)
    resonator.propagator.cache_clear()
    return calls


class TestProfiles:
    def test_constant(self):
        p = ConstantProfile(3.0)
        assert p.value(0.0) == 3.0
        assert np.all(p.sample(np.linspace(0, 1, 5)) == 3.0)

    def test_step(self):
        p = StepProfile(before=0.0, after=2.0, step_time=0.5)
        assert p.value(0.49) == 0.0
        assert p.value(0.5) == 2.0
        sampled = p.sample(np.array([0.0, 0.5, 1.0]))
        assert np.allclose(sampled, [0.0, 2.0, 2.0])

    def test_ramp(self):
        p = RampProfile(start=0.0, stop=10.0, t0=0.0, t1=1.0)
        assert p.value(-1.0) == 0.0
        assert p.value(0.5) == pytest.approx(5.0)
        assert p.value(2.0) == 10.0
        assert np.allclose(p.sample(np.array([0.25, 0.75])), [2.5, 7.5])

    def test_ramp_rejects_bad_times(self):
        with pytest.raises(ConfigurationError):
            RampProfile(t0=1.0, t1=1.0)

    def test_sine(self):
        p = SineProfile(amplitude=2.0, frequency_hz=1.0, offset=1.0)
        assert p.value(0.25) == pytest.approx(3.0)
        assert p.value(0.0) == pytest.approx(1.0)

    def test_sine_rejects_negative_freq(self):
        with pytest.raises(ConfigurationError):
            SineProfile(frequency_hz=-1.0)

    def test_piecewise(self):
        p = PiecewiseProfile(breakpoints=[(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
        assert p.value(-0.5) == 1.0
        assert p.value(0.5) == 1.0
        assert p.value(1.5) == 2.0
        assert p.value(5.0) == 3.0

    def test_piecewise_rejects_unsorted(self):
        with pytest.raises(ConfigurationError):
            PiecewiseProfile(breakpoints=[(1.0, 1.0), (0.5, 2.0)])

    def test_piecewise_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            PiecewiseProfile(breakpoints=[])

    def test_environment_factories(self):
        env = Environment.still(temperature_c=85.0)
        rate, temp = env.at(1.0)
        assert rate == 0.0 and temp == 85.0

        env = Environment.constant_rate(100.0)
        assert env.at(0.0)[0] == 100.0

        env = Environment.rate_step(50.0, step_time=0.1)
        assert env.at(0.05)[0] == 0.0
        assert env.at(0.15)[0] == 50.0

        env = Environment.sinusoidal_rate(10.0, 5.0)
        assert abs(env.at(0.05)[0]) <= 10.0 + 1e-9


class TestResonatorMode:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ResonatorMode(0.0, 100.0, 1e-5)
        with pytest.raises(ConfigurationError):
            ResonatorMode(1000.0, 0.0, 1e-5)
        with pytest.raises(ConfigurationError):
            ResonatorMode(1000.0, 100.0, 0.0)

    def test_rest_stays_at_rest(self):
        mode = ResonatorMode(15000.0, 1000.0, 1.0 / FS)
        for _ in range(100):
            mode.step(0.0)
        assert mode.displacement == 0.0
        assert mode.velocity == 0.0

    def test_resonant_drive_builds_up(self):
        mode = ResonatorMode(15000.0, 500.0, 1.0 / FS)
        dt = 1.0 / FS
        w = 2 * math.pi * 15000.0
        n = int(0.05 * FS)
        amps = []
        for i in range(n):
            mode.step(math.sin(w * i * dt))
        assert abs(mode.displacement) + abs(mode.velocity) > 0.0
        # amplitude approaches the steady-state prediction
        predicted = mode.steady_state_amplitude(1.0)
        peak = 0.0
        for i in range(n, n + int(FS / 15000.0 * 4)):
            mode.step(math.sin(w * i * dt))
            peak = max(peak, abs(mode.displacement))
        assert peak == pytest.approx(predicted, rel=0.2)

    def test_decay_without_drive(self):
        mode = ResonatorMode(15000.0, 200.0, 1.0 / FS)
        dt = 1.0 / FS
        w = 2 * math.pi * 15000.0
        for i in range(int(0.05 * FS)):
            mode.step(math.sin(w * i * dt))
        energy_before = mode.displacement ** 2 + (mode.velocity / w) ** 2
        for _ in range(int(3 * mode.envelope_time_constant() * FS)):
            mode.step(0.0)
        energy_after = mode.displacement ** 2 + (mode.velocity / w) ** 2
        assert energy_after < 0.01 * energy_before

    def test_steady_state_amplitude_at_resonance(self):
        mode = ResonatorMode(1000.0, 100.0, 1e-5)
        w0 = 2 * math.pi * 1000.0
        expected = 1.0 * 100.0 / w0 ** 2
        assert mode.steady_state_amplitude(1.0) == pytest.approx(expected, rel=1e-6)

    def test_steady_state_amplitude_off_resonance_smaller(self):
        mode = ResonatorMode(1000.0, 100.0, 1e-5)
        at_res = mode.steady_state_amplitude(1.0)
        off_res = mode.steady_state_amplitude(1.0, drive_freq_hz=1200.0)
        assert off_res < at_res

    def test_envelope_time_constant(self):
        mode = ResonatorMode(15000.0, 4000.0, 1.0 / FS)
        assert mode.envelope_time_constant() == pytest.approx(
            2 * 4000.0 / (2 * math.pi * 15000.0))

    def test_half_power_bandwidth(self):
        mode = ResonatorMode(15000.0, 1500.0, 1.0 / FS)
        assert mode.half_power_bandwidth_hz() == pytest.approx(10.0)

    def test_retune_changes_resonance(self):
        mode = ResonatorMode(15000.0, 1000.0, 1.0 / FS)
        mode.retune(resonance_hz=14000.0)
        assert mode.resonance_hz == 14000.0
        mode.retune(quality_factor=2000.0)
        assert mode.quality_factor == 2000.0

    def test_retune_rejects_bad_values(self):
        mode = ResonatorMode(15000.0, 1000.0, 1.0 / FS)
        with pytest.raises(ConfigurationError):
            mode.retune(resonance_hz=-1.0)

    def test_reset(self):
        mode = ResonatorMode(15000.0, 1000.0, 1.0 / FS)
        mode.step(1.0)
        mode.reset()
        assert mode.displacement == 0.0
        assert mode.velocity == 0.0

    @given(st.floats(min_value=5000.0, max_value=20000.0),
           st.floats(min_value=10.0, max_value=5000.0))
    @settings(max_examples=20, deadline=None)
    def test_unforced_motion_never_grows(self, f0, q):
        mode = ResonatorMode(f0, q, 1.0 / 480000.0)
        # start from a displaced state
        mode._displacement = 1.0
        mode._velocity = 0.0
        peak = 0.0
        for _ in range(2000):
            mode.step(0.0)
            peak = max(peak, abs(mode.displacement))
        assert peak <= 1.0 + 1e-9


class TestPropagatorMemo:
    def test_a_seen_tuning_does_not_call_expm(self, expm_calls):
        f, q, dt = 15000.0, 1000.0, 1.0 / FS
        first = ResonatorMode(f, q, dt)
        assert len(expm_calls) == 1
        again = ResonatorMode(f, q, dt)
        assert len(expm_calls) == 1
        assert vars(again) == vars(first)
        ResonatorMode(f, q * 2.0, dt)
        assert len(expm_calls) == 2
        ResonatorMode(f, q, dt / 2.0)
        assert len(expm_calls) == 3
        first.retune(resonance_hz=f * 2.0)
        assert len(expm_calls) == 4
        first.retune(resonance_hz=f)
        assert len(expm_calls) == 4
        assert vars(first) == vars(again)

    def test_a_hit_returns_the_bits_of_a_fresh_computation(self,
                                                           expm_calls):
        # a float32 resonance computes in another precision than the
        # equal float, so the two must not share an entry
        for f in (15000.1, np.float32(15000.1), 15000.25,
                  np.float32(15000.25)):
            fresh = resonator.propagator.__wrapped__(f, 1000.0, 1.0 / FS)
            assert resonator.propagator(f, 1000.0, 1.0 / FS) == fresh
        assert (resonator.propagator(15000.25, 1000.0, 1.0 / FS)
                != resonator.propagator(15000.1, 1000.0, 1.0 / FS))

    def test_prefetch_fills_the_memo_a_retune_reads(self, expm_calls):
        gyro = VibratingRingGyro(GyroParameters(), FS)
        assert len(expm_calls) == 2
        targets = gyro.prefetch_propagators(47.5)
        assert len(expm_calls) == 4
        gyro.step(0.0, 0.0, 0.0, temperature_c=47.5)
        assert len(expm_calls) == 4
        assert targets == ((gyro.primary.resonance_hz,
                            gyro.primary.quality_factor),
                           (gyro.secondary.resonance_hz,
                            gyro.secondary.quality_factor))

    @pytest.mark.parametrize("temperature_c", [25.04, 24.96, math.nan,
                                               math.inf, -math.inf, 1.0e5])
    def test_prefetch_does_nothing_the_retune_would_refuse(self, expm_calls,
                                                           temperature_c):
        # inside the hysteresis band nothing retunes; a non-finite
        # temperature, or one that drives the resonance below zero,
        # memoises nothing, so the retune raises its own error
        gyro = VibratingRingGyro(GyroParameters(), FS)
        del expm_calls[:]
        targets = gyro.prefetch_propagators(temperature_c)
        assert expm_calls == []
        assert (targets is None) == (abs(temperature_c - 25.0) < 0.05)
        if temperature_c == 1.0e5:
            with pytest.raises(ConfigurationError):
                gyro.step(0.0, 0.0, 0.0, temperature_c=temperature_c)


class TestGyroParameters:
    def test_defaults_valid(self):
        params = GyroParameters()
        assert params.primary_resonance_hz == pytest.approx(15000.0)

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            GyroParameters(primary_resonance_hz=-1.0)
        with pytest.raises(ConfigurationError):
            GyroParameters(primary_q=0.0)
        with pytest.raises(ConfigurationError):
            GyroParameters(pickoff_gain_v_per_m=0.0)
        with pytest.raises(ConfigurationError):
            GyroParameters(rate_noise_density_dps_rthz=-0.1)

    def test_part_variation_changes_parameters(self):
        rng = np.random.default_rng(0)
        base = GyroParameters()
        varied = base.with_part_variation(rng)
        assert varied.pickoff_gain_v_per_m != base.pickoff_gain_v_per_m
        assert varied.noise_seed != base.noise_seed

    def test_part_variation_is_bounded(self):
        rng = np.random.default_rng(1)
        base = GyroParameters()
        for _ in range(20):
            varied = base.with_part_variation(rng)
            assert 0.8 * base.pickoff_gain_v_per_m < varied.pickoff_gain_v_per_m \
                < 1.2 * base.pickoff_gain_v_per_m


class TestVibratingRingGyro:
    def test_rejects_undersampled_simulation(self):
        with pytest.raises(ConfigurationError):
            VibratingRingGyro(GyroParameters(), sample_rate_hz=20000.0)

    def test_at_rest_outputs_are_zero_without_noise(self):
        params = GyroParameters(rate_noise_density_dps_rthz=0.0)
        gyro = VibratingRingGyro(params, FS)
        for _ in range(100):
            primary, secondary = gyro.step(0.0, 0.0, 0.0)
        assert primary == 0.0
        assert secondary == 0.0

    def test_drive_excites_primary(self):
        params = GyroParameters(rate_noise_density_dps_rthz=0.0)
        gyro = VibratingRingGyro(params, FS)
        w = 2 * math.pi * params.primary_resonance_hz
        dt = 1.0 / FS
        peak = 0.0
        for i in range(int(0.02 * FS)):
            primary, _ = gyro.step(0.5 * math.sin(w * i * dt), 0.0, 0.0)
            peak = max(peak, abs(primary))
        assert peak > 1e-3  # pick-off volts

    def test_rate_produces_secondary_signal(self):
        params = GyroParameters(rate_noise_density_dps_rthz=0.0,
                                quadrature_error_dps=0.0, offset_rate_dps=0.0)
        gyro = VibratingRingGyro(params, FS)
        w = 2 * math.pi * params.primary_resonance_hz
        dt = 1.0 / FS
        # spin up the primary first
        for i in range(int(0.05 * FS)):
            gyro.step(0.5 * math.sin(w * i * dt), 0.0, 0.0)
        sec_zero_rate = []
        for i in range(int(0.05 * FS), int(0.06 * FS)):
            _, s = gyro.step(0.5 * math.sin(w * i * dt), 0.0, 0.0)
            sec_zero_rate.append(s)
        sec_with_rate = []
        for i in range(int(0.06 * FS), int(0.08 * FS)):
            _, s = gyro.step(0.5 * math.sin(w * i * dt), 0.0, 100.0)
            sec_with_rate.append(s)
        assert np.std(sec_with_rate[len(sec_with_rate) // 2:]) > 3 * (
            np.std(sec_zero_rate) + 1e-12)

    def test_secondary_scales_with_rate(self):
        params = GyroParameters(rate_noise_density_dps_rthz=0.0,
                                quadrature_error_dps=0.0, offset_rate_dps=0.0)
        gyro = VibratingRingGyro(params, FS)
        amp_small = gyro.mechanical_sensitivity_v_per_dps(1e-6) * 50.0
        amp_large = gyro.mechanical_sensitivity_v_per_dps(1e-6) * 200.0
        assert amp_large == pytest.approx(4 * amp_small, rel=1e-9)

    def test_temperature_changes_offset(self):
        params = GyroParameters(rate_noise_density_dps_rthz=0.0)
        gyro = VibratingRingGyro(params, FS)
        gyro.step(0.0, 0.0, 0.0, temperature_c=25.0)
        offset_25 = gyro._offset_rate_dps
        gyro.step(0.0, 0.0, 0.0, temperature_c=85.0)
        offset_85 = gyro._offset_rate_dps
        assert offset_85 != pytest.approx(offset_25)

    def test_temperature_changes_resonance(self):
        gyro = VibratingRingGyro(GyroParameters(), FS)
        f_room = gyro.primary.resonance_hz
        gyro.step(0.0, 0.0, 0.0, temperature_c=125.0)
        assert gyro.primary.resonance_hz != pytest.approx(f_room)

    def test_reset_restores_rest(self):
        gyro = VibratingRingGyro(GyroParameters(), FS)
        w = 2 * math.pi * 15000.0
        for i in range(1000):
            gyro.step(math.sin(w * i / FS), 0.0, 10.0)
        gyro.reset()
        assert gyro.primary.displacement == 0.0
        assert gyro.secondary.displacement == 0.0

    def test_noise_is_reproducible_with_seed(self):
        params = GyroParameters(noise_seed=99)
        g1 = VibratingRingGyro(params, FS)
        g2 = VibratingRingGyro(params, FS)
        w = 2 * math.pi * 15000.0
        out1 = [g1.step(math.sin(w * i / FS), 0.0, 0.0)[1] for i in range(200)]
        out2 = [g2.step(math.sin(w * i / FS), 0.0, 0.0)[1] for i in range(200)]
        assert out1 == out2

    def test_turn_on_estimate_reasonable(self):
        gyro = VibratingRingGyro(GyroParameters(), FS)
        estimate = gyro.turn_on_time_estimate_s()
        assert 0.1 < estimate < 1.0  # hundreds of milliseconds, per Table 1


class TestGenericElements:
    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            SensingElementSpec(full_scale=0.0, sensitivity=1.0)
        with pytest.raises(ConfigurationError):
            SensingElementSpec(full_scale=1.0, sensitivity=0.0)
        with pytest.raises(ConfigurationError):
            SensingElementSpec(full_scale=1.0, sensitivity=1.0,
                               noise_density_v_rthz=-1.0)

    def test_capacitive_pressure_sensitivity(self):
        sensor = CapacitivePressureSensor(sample_rate_hz=10000.0)
        v100 = sensor.output_voltage(100.0)
        v200 = sensor.output_voltage(200.0)
        assert v200 > v100
        assert sensor.transduction == "capacitive"

    def test_resistive_bridge_output_is_small(self):
        sensor = ResistiveBridgeSensor(sample_rate_hz=10000.0)
        assert abs(sensor.output_voltage(sensor.spec.full_scale)) < 0.1
        assert sensor.transduction == "resistive"

    def test_inductive_position(self):
        sensor = InductivePositionSensor(sample_rate_hz=10000.0)
        assert sensor.output_voltage(5.0) > sensor.output_voltage(1.0)
        assert sensor.transduction == "inductive"

    def test_temperature_drift_shifts_output(self):
        sensor = CapacitivePressureSensor(sample_rate_hz=10000.0)
        assert sensor.output_voltage(100.0, temperature_c=125.0) != pytest.approx(
            sensor.output_voltage(100.0, temperature_c=25.0))

    def test_noisy_step_differs_from_ideal(self):
        sensor = CapacitivePressureSensor(sample_rate_hz=10000.0, seed=5)
        ideal = sensor.output_voltage(100.0)
        samples = np.array([sensor.step(100.0) for _ in range(200)])
        assert np.std(samples) > 0.0
        assert np.mean(samples) == pytest.approx(ideal, abs=5e-4)

    def test_rejects_bad_sample_rate(self):
        with pytest.raises(ConfigurationError):
            CapacitivePressureSensor(sample_rate_hz=0.0)

    @given(st.floats(min_value=-300.0, max_value=300.0))
    @settings(max_examples=50, deadline=None)
    def test_output_monotone_in_input(self, value):
        sensor = CapacitivePressureSensor(sample_rate_hz=10000.0)
        lower = sensor.output_voltage(value - 1.0)
        upper = sensor.output_voltage(value + 1.0)
        assert upper > lower
