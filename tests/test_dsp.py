"""Tests for the DSP block IPs."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import signal

from strategies.settings import STANDARD_SETTINGS

from repro.common import ConfigurationError, DSP16, QFormat
from repro.dsp import (
    AgcConfig,
    BiquadFilter,
    CicDecimator,
    DigitalPll,
    Downsampler,
    DriveAgc,
    FirFilter,
    IirFilter,
    Mixer,
    Modulator,
    Nco,
    OffsetCompensation,
    OnePoleLowPass,
    PllConfig,
    QuadratureCancellation,
    QuadratureDemodulator,
    RateScaler,
    RateScalerConfig,
    SynchronousDemodulator,
    TemperatureCompensation,
    TemperatureCompensationConfig,
)
from repro.dsp.iir import _butterworth_sos
from repro.gyro.sense import SenseChainConfig

FS = 120_000.0


class TestFirFilter:
    def test_impulse_response_equals_coefficients(self):
        coeffs = [0.5, 0.3, 0.2]
        fir = FirFilter(coeffs)
        impulse = [1.0, 0.0, 0.0, 0.0]
        out = [fir.step(x) for x in impulse]
        assert out[:3] == pytest.approx(coeffs)
        assert out[3] == pytest.approx(0.0)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            FirFilter([])

    def test_moving_average(self):
        fir = FirFilter.moving_average(4)
        out = [fir.step(1.0) for _ in range(8)]
        assert out[3] == pytest.approx(1.0)
        with pytest.raises(ConfigurationError):
            FirFilter.moving_average(0)

    def test_low_pass_design_attenuates(self):
        fir = FirFilter.low_pass(63, 1000.0, FS)
        t = np.arange(4000) / FS
        low_tone = np.sin(2 * np.pi * 100.0 * t)
        high_tone = np.sin(2 * np.pi * 20000.0 * t)
        out_low = fir.process(low_tone)
        fir.reset()
        out_high = fir.process(high_tone)
        assert np.std(out_low[500:]) > 10 * np.std(out_high[500:])

    def test_low_pass_design_validation(self):
        with pytest.raises(ConfigurationError):
            FirFilter.low_pass(2, 100.0, FS)
        with pytest.raises(ConfigurationError):
            FirFilter.low_pass(31, FS, FS)

    def test_process_matches_step(self):
        coeffs = np.array([0.1, -0.2, 0.3, 0.05])
        x = np.random.default_rng(0).normal(size=50)
        f1 = FirFilter(coeffs)
        f2 = FirFilter(coeffs)
        step_out = np.array([f1.step(v) for v in x])
        proc_out = f2.process(x)
        assert np.allclose(step_out, proc_out)

    def test_process_preserves_state_between_calls(self):
        coeffs = np.array([0.25, 0.25, 0.25, 0.25])
        x = np.random.default_rng(1).normal(size=64)
        whole = FirFilter(coeffs).process(x)
        split = FirFilter(coeffs)
        part = np.concatenate([split.process(x[:20]), split.process(x[20:])])
        assert np.allclose(whole, part)

    def test_quantised_output(self):
        fmt = QFormat(int_bits=1, frac_bits=4)
        fir = FirFilter([1.0], output_format=fmt)
        assert fir.step(0.33) == pytest.approx(0.3125)

    def test_coefficient_quantisation(self):
        fmt = QFormat(int_bits=1, frac_bits=3)
        fir = FirFilter([0.3], coefficient_format=fmt)
        assert fir.coefficients[0] == pytest.approx(0.25)

    def test_frequency_response(self):
        fir = FirFilter.moving_average(8)
        h = fir.frequency_response(np.array([0.0]), FS)
        assert abs(h[0]) == pytest.approx(1.0)

    def test_order(self):
        assert FirFilter([1, 2, 3]).order == 2

    def test_empty_process(self):
        assert FirFilter([1.0]).process([]).size == 0


class TestIirFilter:
    def test_biquad_validation(self):
        with pytest.raises(ConfigurationError):
            BiquadFilter([1.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(ConfigurationError):
            BiquadFilter([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])

    def test_biquad_passthrough(self):
        bq = BiquadFilter([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        assert bq.step(0.7) == pytest.approx(0.7)

    def test_butterworth_dc_gain(self):
        lp = IirFilter.butterworth_low_pass(4, 50.0, FS)
        out = 0.0
        for _ in range(int(FS * 0.2)):
            out = lp.step(1.0)
        assert out == pytest.approx(1.0, rel=0.01)

    def test_butterworth_bandwidth(self):
        lp = IirFilter.butterworth_low_pass(4, 50.0, FS)
        assert lp.three_db_bandwidth_hz(FS, max_freq_hz=500.0) == pytest.approx(50.0, rel=0.05)

    def test_butterworth_attenuates_high_freq(self):
        lp = IirFilter.butterworth_low_pass(2, 100.0, FS)
        freqs = np.array([10.0, 1000.0, 10000.0])
        mag = np.abs(lp.frequency_response(freqs, FS))
        assert mag[0] > 0.99
        assert mag[1] < 0.05
        assert mag[2] < 0.001

    def test_high_pass_design(self):
        hp = IirFilter.butterworth_high_pass(2, 1000.0, FS)
        freqs = np.array([10.0, 10000.0])
        mag = np.abs(hp.frequency_response(freqs, FS))
        assert mag[0] < 0.05
        assert mag[1] > 0.9

    def test_design_validation(self):
        with pytest.raises(ConfigurationError):
            IirFilter.butterworth_low_pass(0, 50.0, FS)
        with pytest.raises(ConfigurationError):
            IirFilter.butterworth_low_pass(2, FS, FS)
        with pytest.raises(ConfigurationError):  # cutoff / Nyquist is 0
            IirFilter.butterworth_low_pass(2, 5e-324, FS)
        with pytest.raises(ConfigurationError):
            IirFilter.butterworth_high_pass(0, 50.0, FS)
        with pytest.raises(ConfigurationError):
            IirFilter([])

    def test_process_matches_step(self):
        x = np.random.default_rng(2).normal(size=200)
        f1 = IirFilter.butterworth_low_pass(4, 500.0, FS)
        f2 = IirFilter.butterworth_low_pass(4, 500.0, FS)
        step_out = np.array([f1.step(v) for v in x])
        proc_out = f2.process(x)
        assert np.allclose(step_out, proc_out, atol=1e-12)

    def test_reset(self):
        lp = IirFilter.butterworth_low_pass(2, 100.0, FS)
        lp.step(1.0)
        lp.reset()
        assert lp.step(0.0) == pytest.approx(0.0)

    def test_one_pole_low_pass(self):
        lp = OnePoleLowPass(100.0, FS)
        for _ in range(int(FS * 0.1)):
            out = lp.step(2.0)
        assert out == pytest.approx(2.0, rel=0.01)
        lp.reset()
        assert lp.step(0.0) == 0.0

    def test_one_pole_validation(self):
        with pytest.raises(ConfigurationError):
            OnePoleLowPass(0.0, FS)
        with pytest.raises(ConfigurationError):
            OnePoleLowPass(FS, FS)


class TestButterworthDesign:
    """The NumPy design is SciPy's ``butter(..., output="sos")``, byte for
    byte; a SciPy release that designs differently fails here by name."""

    @staticmethod
    def _check(order, cutoff_hz, sample_rate_hz, high_pass):
        want = signal.butter(order, cutoff_hz,
                             btype="high" if high_pass else "low",
                             fs=sample_rate_hz, output="sos")
        got = _butterworth_sos(order, cutoff_hz, sample_rate_hz, high_pass)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), \
            (order, cutoff_hz, sample_rate_hz, high_pass)

    def test_matches_scipy_on_a_grid(self):
        for sample_rate_hz in (1e3, 8e3, 48e3, 96e3, 120e3):
            cutoffs = np.concatenate((
                np.linspace(0.001, 0.999, 28) * sample_rate_hz / 2,
                [25.0, 50.0, 75.0, 100.0]))
            for order in range(1, 11):
                for high_pass in (False, True):
                    for cutoff_hz in cutoffs:
                        self._check(order, float(cutoff_hz), sample_rate_hz,
                                    high_pass)

    @STANDARD_SETTINGS
    @given(order=st.integers(1, 12),
           sample_rate_hz=st.floats(1.0, 1e9),
           fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           high_pass=st.booleans())
    def test_matches_scipy(self, order, sample_rate_hz, fraction, high_pass):
        cutoff_hz = fraction * sample_rate_hz / 2
        assume(0 < cutoff_hz < sample_rate_hz / 2)
        self._check(order, cutoff_hz, sample_rate_hz, high_pass)

    def test_whole_number_orders_design_one_filter(self):
        def coefficients(order):
            design = IirFilter.butterworth_low_pass(order, 50.0, FS)
            return [s.b + s.a for s in design.sections]

        assert coefficients(3.0) == coefficients(np.int64(3)) == coefficients(3)

    @pytest.mark.parametrize("order", [2.5, "2", None])
    def test_order_must_be_a_whole_number(self, order):
        for design in (IirFilter.butterworth_low_pass,
                       IirFilter.butterworth_high_pass):
            with pytest.raises(ConfigurationError, match="whole number"):
                design(order, 50.0, FS)
        with pytest.raises(ConfigurationError, match="whole number"):
            SenseChainConfig(output_filter_order=order)


class TestNco:
    def test_generates_requested_frequency(self):
        nco = Nco(15000.0, FS)
        n = int(FS * 0.01)
        samples = np.array([nco.step()[0] for _ in range(n)])
        spectrum = np.abs(np.fft.rfft(samples * np.hanning(n)))
        freqs = np.fft.rfftfreq(n, 1.0 / FS)
        assert freqs[np.argmax(spectrum)] == pytest.approx(15000.0, abs=200.0)

    def test_sin_cos_orthogonal(self):
        nco = Nco(15000.0, FS)
        samples = [nco.step() for _ in range(int(FS * 0.01))]
        sins = np.array([s for s, _ in samples])
        coss = np.array([c for _, c in samples])
        assert abs(np.mean(sins * coss)) < 0.01
        assert np.mean(sins ** 2) == pytest.approx(0.5, abs=0.02)

    def test_tuning_changes_frequency(self):
        nco = Nco(15000.0, FS, tuning_range_hz=500.0)
        nco.tuning_hz = 200.0
        assert nco.frequency_hz == pytest.approx(15200.0)

    def test_tuning_clamped(self):
        nco = Nco(15000.0, FS, tuning_range_hz=100.0)
        nco.tuning_hz = 1e6
        assert nco.tuning_hz == 100.0
        nco.tuning_hz = -1e6
        assert nco.tuning_hz == -100.0

    def test_reset(self):
        nco = Nco(15000.0, FS, initial_phase_rad=0.5)
        nco.step()
        nco.tuning_hz = 50.0
        nco.reset()
        assert nco.phase == pytest.approx(0.5)
        assert nco.tuning_hz == 0.0

    def test_quantised_output(self):
        fmt = QFormat(int_bits=1, frac_bits=3)
        nco = Nco(15000.0, FS, output_format=fmt)
        s, c = nco.step()
        assert s in [i * fmt.lsb for i in range(-16, 16)]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Nco(0.0, FS)
        with pytest.raises(ConfigurationError):
            Nco(15000.0, 20000.0)
        with pytest.raises(ConfigurationError):
            Nco(15000.0, FS, tuning_range_hz=-1.0)


class TestMixers:
    def test_mixer_multiplies(self):
        m = Mixer()
        assert m.mix(0.5, 0.5) == pytest.approx(0.25)

    def test_mixer_quantises(self):
        m = Mixer(output_format=QFormat(int_bits=1, frac_bits=2))
        assert m.mix(0.4, 0.9) == pytest.approx(0.25)

    def test_synchronous_demodulator_recovers_amplitude(self):
        demod = SynchronousDemodulator(500.0, FS)
        w = 2 * math.pi * 15000.0
        out = 0.0
        for i in range(int(FS * 0.05)):
            ref = math.cos(w * i / FS)
            out = demod.demodulate(0.3 * ref, ref)
        assert out == pytest.approx(0.3, rel=0.05)

    def test_synchronous_demodulator_rejects_quadrature(self):
        demod = SynchronousDemodulator(500.0, FS)
        w = 2 * math.pi * 15000.0
        out = 0.0
        for i in range(int(FS * 0.05)):
            out = demod.demodulate(0.3 * math.sin(w * i / FS), math.cos(w * i / FS))
        assert abs(out) < 0.02

    def test_demodulator_validation(self):
        with pytest.raises(ConfigurationError):
            SynchronousDemodulator(0.0, FS)

    def test_quadrature_demodulator_separates_channels(self):
        qd = QuadratureDemodulator(500.0, FS)
        w = 2 * math.pi * 15000.0
        for i in range(int(FS * 0.05)):
            ref_c = math.cos(w * i / FS)
            ref_s = math.sin(w * i / FS)
            signal = 0.2 * ref_c + 0.05 * ref_s
            i_out, q_out = qd.step(signal, ref_c, ref_s)
        assert i_out == pytest.approx(0.2, rel=0.1)
        assert q_out == pytest.approx(0.05, rel=0.2)

    def test_modulator(self):
        mod = Modulator()
        assert mod.modulate(0.5, -1.0) == pytest.approx(-0.5)
        mod.set_carrier(0.5)
        assert mod.step(0.5) == pytest.approx(0.25)


class TestCompensation:
    def test_offset_compensation(self):
        comp = OffsetCompensation(offset=0.1)
        assert comp.step(0.5) == pytest.approx(0.4)

    def test_temperature_compensation_removes_linear_drift(self):
        cfg = TemperatureCompensationConfig(offset_poly=(0.0, 0.01),
                                            sensitivity_poly=(0.0,))
        comp = TemperatureCompensation(cfg)
        # signal with a 0.01/°C offset drift is corrected back
        raw_at_85 = 0.5 + 0.01 * 60.0
        assert comp.step(raw_at_85, temperature_c=85.0) == pytest.approx(0.5)

    def test_temperature_compensation_sensitivity(self):
        cfg = TemperatureCompensationConfig(offset_poly=(0.0,),
                                            sensitivity_poly=(-1e-3,))
        comp = TemperatureCompensation(cfg)
        raw = 0.5 * (1.0 - 1e-3 * 60.0)
        assert comp.step(raw, temperature_c=85.0) == pytest.approx(0.5)

    def test_temperature_compensation_validation(self):
        with pytest.raises(ConfigurationError):
            TemperatureCompensationConfig(offset_poly=())

    def test_quadrature_cancellation(self):
        qc = QuadratureCancellation(coefficient=0.1)
        assert qc.step(1.0, 0.5) == pytest.approx(0.95)

    def test_rate_scaler_round_trip(self):
        scaler = RateScaler(RateScalerConfig(full_scale_dps=300.0,
                                             scale_dps_per_unit=100.0))
        assert scaler.to_dps(1.5) == pytest.approx(150.0)
        assert scaler.to_output_word(150.0) == pytest.approx(0.5)
        assert scaler.step(1.5) == pytest.approx(0.5)

    def test_rate_scaler_clips(self):
        scaler = RateScaler(RateScalerConfig(full_scale_dps=300.0))
        assert scaler.to_output_word(1000.0) == 1.0
        assert scaler.to_output_word(-1000.0) == -1.0

    def test_rate_scaler_calibrate(self):
        scaler = RateScaler()
        scaler.calibrate(measured_channel_per_dps=0.02)
        assert scaler.to_dps(0.02) == pytest.approx(1.0)
        with pytest.raises(ConfigurationError):
            scaler.calibrate(0.0)

    def test_rate_scaler_validation(self):
        with pytest.raises(ConfigurationError):
            RateScalerConfig(volts_per_dps=0.0)
        with pytest.raises(ConfigurationError):
            RateScalerConfig(full_scale_dps=-1.0)

    def test_rate_scaler_output_sensitivity(self):
        scaler = RateScaler(RateScalerConfig(full_scale_dps=300.0))
        assert scaler.output_volts_per_dps(1.5) == pytest.approx(0.005)


class TestDecimators:
    def test_cic_constant_input(self):
        cic = CicDecimator(decimation=8, order=2)
        outputs = cic.process(np.ones(64))
        assert outputs.size == 8
        assert outputs[-1] == pytest.approx(1.0)

    def test_cic_output_rate(self):
        cic = CicDecimator(decimation=4, order=1)
        outs = [cic.step(1.0) for _ in range(12)]
        assert sum(o is not None for o in outs) == 3

    def test_cic_attenuates_high_frequency(self):
        cic = CicDecimator(decimation=16, order=3)
        n = 4096
        t = np.arange(n) / FS
        low = cic.process(np.sin(2 * np.pi * 50.0 * t))
        cic.reset()
        high = cic.process(np.sin(2 * np.pi * 30000.0 * t))
        assert np.std(low[10:]) > 5 * np.std(high[10:])

    def test_cic_process_matches_step(self):
        # the vectorised process() must reproduce the scalar step() stream
        # exactly, including across call boundaries at awkward phases
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 1.0, 1001)
        a = CicDecimator(decimation=8, order=3)
        b = CicDecimator(decimation=8, order=3)
        scalar = [y for y in (a.step(float(v)) for v in x) if y is not None]
        chunks = [b.process(x[:5]), b.process(x[5:700]), b.process(x[700:])]
        vectorised = np.concatenate(chunks)
        np.testing.assert_array_equal(vectorised, np.asarray(scalar))
        assert a._integrators == b._integrators
        assert a._combs == b._combs
        assert a._phase == b._phase

    def test_cic_process_matches_step_quantised(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0.0, 0.3, 257)
        fmt = QFormat(int_bits=1, frac_bits=10)
        a = CicDecimator(decimation=4, order=2, output_format=fmt)
        b = CicDecimator(decimation=4, order=2, output_format=fmt)
        scalar = [y for y in (a.step(float(v)) for v in x) if y is not None]
        np.testing.assert_array_equal(b.process(x), np.asarray(scalar))

    def test_cic_process_interleaves_with_step(self):
        a = CicDecimator(decimation=4, order=2)
        b = CicDecimator(decimation=4, order=2)
        x = np.arange(40, dtype=np.float64)
        scalar = [y for y in (a.step(float(v)) for v in x) if y is not None]
        mixed = list(b.process(x[:6]))
        mixed += [y for y in (b.step(float(v)) for v in x[6:13])
                  if y is not None]
        mixed += list(b.process(x[13:]))
        np.testing.assert_array_equal(np.asarray(mixed), np.asarray(scalar))

    def test_cic_process_empty(self):
        cic = CicDecimator(decimation=4, order=2)
        assert cic.process(np.zeros(0)).size == 0
        # fewer samples than needed to reach the next emission
        assert cic.process(np.ones(2)).size == 0
        assert cic._phase == 2

    def test_cic_validation(self):
        with pytest.raises(ConfigurationError):
            CicDecimator(0)
        with pytest.raises(ConfigurationError):
            CicDecimator(4, order=0)

    def test_downsampler(self):
        ds = Downsampler(3)
        outs = [ds.step(float(i)) for i in range(9)]
        values = [o for o in outs if o is not None]
        assert values == [2.0, 5.0, 8.0]
        ds.reset()
        assert ds.step(1.0) is None

    def test_downsampler_validation(self):
        with pytest.raises(ConfigurationError):
            Downsampler(0)


class TestAgc:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AgcConfig(target_amplitude=0.0)
        with pytest.raises(ConfigurationError):
            AgcConfig(kp=-1.0)
        with pytest.raises(ConfigurationError):
            AgcConfig(startup_gain=2.0)
        with pytest.raises(ConfigurationError):
            AgcConfig(min_gain=0.5, max_gain=0.2, startup_gain=0.3)

    def test_starts_at_startup_gain(self):
        agc = DriveAgc(AgcConfig(startup_gain=0.8))
        assert agc.gain == pytest.approx(0.8)

    def test_gain_decreases_when_amplitude_too_high(self):
        agc = DriveAgc(AgcConfig(target_amplitude=0.5, startup_gain=0.8))
        g0 = agc.gain
        for _ in range(1000):
            g = agc.step(0.9)
        assert g < g0

    def test_gain_increases_when_amplitude_too_low(self):
        agc = DriveAgc(AgcConfig(target_amplitude=0.5, startup_gain=0.2))
        for _ in range(1000):
            g = agc.step(0.1)
        assert g > 0.2

    def test_gain_clamped(self):
        agc = DriveAgc(AgcConfig(target_amplitude=0.5, max_gain=1.0, startup_gain=0.9))
        for _ in range(100000):
            g = agc.step(0.0)
        assert g == pytest.approx(1.0)
        for _ in range(200000):
            g = agc.step(2.0)
        assert g == pytest.approx(0.0)

    def test_settled_flag(self):
        agc = DriveAgc(AgcConfig(target_amplitude=0.5, settle_threshold=0.02))
        agc.step(0.5)
        assert agc.settled
        agc.step(0.1)
        assert not agc.settled

    def test_reset(self):
        agc = DriveAgc()
        for _ in range(100):
            agc.step(1.0)
        agc.reset()
        assert agc.gain == pytest.approx(agc.config.startup_gain)

    def test_closed_loop_first_order_plant(self):
        # plant: amplitude responds to gain through a slow first-order lag
        agc = DriveAgc(AgcConfig(target_amplitude=0.5, kp=0.2, ki=1e-3))
        amplitude = 0.0
        plant_gain = 0.9
        alpha = 1.0 - math.exp(-1.0 / (0.02 * FS))
        for _ in range(int(FS * 0.8)):
            drive = agc.step(amplitude)
            amplitude += alpha * (plant_gain * drive - amplitude)
        assert amplitude == pytest.approx(0.5, rel=0.05)


class TestDigitalPll:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            PllConfig(center_frequency_hz=0.0)
        with pytest.raises(ConfigurationError):
            PllConfig(sample_rate_hz=20000.0, center_frequency_hz=15000.0)
        with pytest.raises(ConfigurationError):
            PllConfig(kp=-1.0)
        with pytest.raises(ConfigurationError):
            PllConfig(lock_count=0)

    def test_free_runs_without_signal(self):
        pll = DigitalPll(PllConfig(sample_rate_hz=FS))
        for _ in range(1000):
            pll.step(0.0)
        assert pll.frequency_hz == pytest.approx(15000.0)
        assert not pll.locked
        assert pll.amplitude_estimate == pytest.approx(0.0, abs=1e-6)

    def test_tracks_external_tone_frequency(self):
        # external tone 80 Hz above the centre: the loop should pull the NCO
        # frequency toward the tone
        cfg = PllConfig(sample_rate_hz=FS, kp=40.0, ki=0.02, lock_count=500)
        pll = DigitalPll(cfg)
        f_tone = 15080.0
        w = 2 * math.pi * f_tone
        for i in range(int(FS * 0.3)):
            # external tone behaves like the resonator pick-off: lags the
            # drive reference by 90 deg when on frequency
            pll.step(0.5 * math.sin(w * i / FS))
        assert pll.frequency_hz == pytest.approx(f_tone, abs=20.0)

    def test_freerun_drops_stale_tuning_word(self):
        # regression: after losing the input signal the NCO must actually
        # free-run at the centre frequency — a stale tuning word used to
        # keep it at the last tracked frequency
        cfg = PllConfig(sample_rate_hz=FS, kp=40.0, ki=0.02)
        pll = DigitalPll(cfg)
        w = 2 * math.pi * 15080.0
        for i in range(int(FS * 0.2)):
            pll.step(0.5 * math.sin(w * i / FS))
        assert pll.nco.tuning_hz != 0.0  # the loop pulled the NCO
        # signal disappears: amplitude estimate decays below threshold
        for _ in range(int(FS * 0.1)):
            pll.step(0.0)
        assert pll.amplitude_estimate < cfg.amplitude_threshold
        assert pll.nco.tuning_hz == 0.0
        assert pll.frequency_hz == pytest.approx(cfg.center_frequency_hz)
        assert not pll.locked

    def test_amplitude_estimate_tracks_input(self):
        pll = DigitalPll(PllConfig(sample_rate_hz=FS))
        w = 2 * math.pi * 15000.0
        for i in range(int(FS * 0.1)):
            pll.step(0.4 * math.sin(w * i / FS))
        assert pll.amplitude_estimate == pytest.approx(0.4, rel=0.15)

    def test_reset(self):
        pll = DigitalPll(PllConfig(sample_rate_hz=FS))
        w = 2 * math.pi * 15050.0
        for i in range(10000):
            pll.step(0.5 * math.sin(w * i / FS))
        pll.reset()
        assert pll.frequency_hz == pytest.approx(15000.0)
        assert pll.vco_control_hz == 0.0
        assert not pll.locked

    def test_references_are_unit_amplitude(self):
        pll = DigitalPll(PllConfig(sample_rate_hz=FS))
        s, c = pll.step(0.0)
        assert abs(s) <= 1.0 and abs(c) <= 1.0
        assert s ** 2 + c ** 2 == pytest.approx(1.0, abs=1e-9)


class TestDriveLoopWithResonator:
    """Closed-loop integration: PLL + AGC driving the mechanical resonator."""

    def _run_drive_loop(self, resonance_hz, duration_s=0.6, fs=FS):
        from repro.sensors import ResonatorMode

        mode = ResonatorMode(resonance_hz, 4000.0, 1.0 / fs)
        pll = DigitalPll(PllConfig(center_frequency_hz=15000.0, sample_rate_hz=fs))
        agc = DriveAgc(AgcConfig(target_amplitude=0.5))
        pickoff_gain = 5.0e5 * 2.0 / 2.5  # sensor pick-off * PGA / ADC ref
        drive_gain = 2.0 * 2.5            # DAC ref * electrode gain
        sin_ref, cos_ref = 0.0, 1.0
        pickoff_norm = 0.0
        for _ in range(int(duration_s * fs)):
            sin_ref, cos_ref = pll.step(pickoff_norm)
            gain = agc.step(pll.amplitude_estimate)
            drive_accel = gain * cos_ref * drive_gain
            x = mode.step(drive_accel)
            pickoff_norm = x * pickoff_gain
        return pll, agc

    def test_locks_to_nominal_resonance(self):
        pll, agc = self._run_drive_loop(15000.0)
        assert pll.locked
        assert pll.amplitude_estimate == pytest.approx(0.5, rel=0.1)
        assert abs(pll.phase_error) < 0.05

    def test_locks_to_shifted_resonance(self):
        pll, agc = self._run_drive_loop(15060.0, duration_s=1.0)
        assert pll.locked
        assert pll.frequency_hz == pytest.approx(15060.0, abs=15.0)
        assert pll.amplitude_estimate == pytest.approx(0.5, rel=0.15)
