"""Tests for the gyro conditioning chain blocks (drive, sense, closed loop,
start-up, calibration, conditioner registers)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies.settings import DETERMINISM_SETTINGS

from repro.common import ConfigurationError, CalibrationError
from repro.dsp import PllConfig, AgcConfig, TemperatureCompensationConfig
from repro.gyro import (
    DriveLoop,
    DriveLoopConfig,
    ForceRebalanceConfig,
    ForceRebalanceController,
    GyroConditioner,
    GyroConditionerConfig,
    ScaleCalibration,
    SenseChain,
    SenseChainConfig,
    StartupConfig,
    StartupSequencer,
    StartupState,
    fit_scale_factor,
    fit_temperature_compensation,
    null_voltage_error,
    q114_to_float,
    sensitivity_error_percent,
)

FS = 120_000.0


class TestDriveLoop:
    def test_config_consistency_check(self):
        with pytest.raises(ConfigurationError):
            DriveLoopConfig(pll=PllConfig(amplitude_threshold=0.6),
                            agc=AgcConfig(target_amplitude=0.5))

    def test_initial_state(self):
        loop = DriveLoop()
        assert not loop.locked
        assert loop.drive_word == 0.0
        assert loop.amplitude_control == pytest.approx(
            loop.config.agc.startup_gain)

    def test_drive_word_is_carrier_scaled_by_gain(self):
        loop = DriveLoop()
        word = loop.step(0.0)
        sin_ref, cos_ref = loop.references
        assert word == pytest.approx(loop.amplitude_control * cos_ref)

    def test_reset(self):
        loop = DriveLoop()
        for _ in range(100):
            loop.step(0.1)
        loop.reset()
        assert loop.drive_word == 0.0
        assert not loop.locked

    def test_fig5_traces_exposed(self):
        loop = DriveLoop()
        loop.step(0.0)
        assert isinstance(loop.amplitude_control, float)
        assert isinstance(loop.phase_error, float)
        assert isinstance(loop.amplitude_error, float)
        assert isinstance(loop.vco_control, float)


class TestSenseChain:
    def _drive_chain(self, chain, signal_amp, quad_amp=0.0, n=None,
                     temperature_c=25.0):
        w = 2 * math.pi * 15000.0
        n = n or int(FS * 0.1)
        rate = word = 0.0
        for i in range(n):
            cos_ref = math.cos(w * i / FS)
            sin_ref = math.sin(w * i / FS)
            signal = signal_amp * cos_ref + quad_amp * sin_ref
            rate, word = chain.step(signal, sin_ref, cos_ref, temperature_c)
        return rate, word

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SenseChainConfig(sample_rate_hz=0.0)
        with pytest.raises(ConfigurationError):
            SenseChainConfig(output_bandwidth_hz=0.0)
        with pytest.raises(ConfigurationError):
            SenseChainConfig(output_filter_order=0)

    def test_recovers_in_phase_amplitude(self):
        chain = SenseChain(SenseChainConfig())
        self._drive_chain(chain, signal_amp=0.1)
        assert chain.rate_channel == pytest.approx(0.1, rel=0.05)

    def test_rejects_quadrature_component(self):
        chain = SenseChain(SenseChainConfig())
        self._drive_chain(chain, signal_amp=0.0, quad_amp=0.2)
        assert abs(chain.rate_channel) < 0.01
        assert chain.quadrature_channel == pytest.approx(0.2, rel=0.1)

    def test_scale_calibration_changes_rate(self):
        chain = SenseChain(SenseChainConfig())
        chain.calibrate_scale(channel_per_dps=0.001)
        rate, _ = self._drive_chain(chain, signal_amp=0.1)
        assert rate == pytest.approx(100.0, rel=0.05)

    def test_offset_calibration(self):
        chain = SenseChain(SenseChainConfig())
        chain.calibrate_scale(channel_per_dps=0.001)
        chain.calibrate_offset(0.1)
        rate, _ = self._drive_chain(chain, signal_amp=0.1)
        assert rate == pytest.approx(0.0, abs=2.0)

    def test_temperature_compensation_applied(self):
        chain = SenseChain(SenseChainConfig())
        chain.calibrate_scale(channel_per_dps=0.001)
        chain.calibrate_temperature(TemperatureCompensationConfig(
            offset_poly=(0.0, 0.001), sensitivity_poly=(0.0,)))
        rate_25, _ = self._drive_chain(chain, signal_amp=0.1, temperature_c=25.0)
        chain.reset()
        rate_85, _ = self._drive_chain(chain, signal_amp=0.1, temperature_c=85.0)
        # at 85 C the compensation removes 0.001*60 channel units = 60 dps
        assert rate_25 - rate_85 == pytest.approx(60.0, rel=0.05)

    def test_rate_word_clipped(self):
        chain = SenseChain(SenseChainConfig())
        chain.calibrate_scale(channel_per_dps=1e-5)
        _, word = self._drive_chain(chain, signal_amp=0.5)
        assert -1.0 <= word <= 1.0

    def test_reset_clears_state(self):
        chain = SenseChain(SenseChainConfig())
        self._drive_chain(chain, signal_amp=0.3, n=1000)
        chain.reset()
        assert chain.rate_channel == 0.0
        assert chain.rate_dps == 0.0


class TestForceRebalance:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ForceRebalanceConfig(sample_rate_hz=0.0)
        with pytest.raises(ConfigurationError):
            ForceRebalanceConfig(kp=-1.0)
        with pytest.raises(ConfigurationError):
            ForceRebalanceConfig(max_command=0.0)

    def test_command_opposes_persistent_motion(self):
        ctrl = ForceRebalanceController(ForceRebalanceConfig())
        w = 2 * math.pi * 15000.0
        out = 0.0
        for i in range(int(FS * 0.05)):
            cos_ref = math.cos(w * i / FS)
            out = ctrl.step(0.2 * cos_ref, cos_ref)
        # persistent in-phase motion => integrator builds a positive command
        assert ctrl.command > 0.05
        # and the emitted control word opposes the motion (negative carrier)
        assert out * ctrl.command <= 0.0 or abs(out) < 1.0

    def test_command_saturates(self):
        ctrl = ForceRebalanceController(ForceRebalanceConfig(max_command=0.3))
        w = 2 * math.pi * 15000.0
        for i in range(int(FS * 0.2)):
            cos_ref = math.cos(w * i / FS)
            ctrl.step(0.9 * cos_ref, cos_ref)
        assert abs(ctrl.command) <= 0.3 + 1e-9

    def test_reset(self):
        ctrl = ForceRebalanceController()
        w = 2 * math.pi * 15000.0
        for i in range(1000):
            ctrl.step(0.5 * math.cos(w * i / FS), math.cos(w * i / FS))
        ctrl.reset()
        assert ctrl.command == 0.0
        assert ctrl.residual_motion == 0.0


class TestStartupSequencer:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            StartupConfig(sample_rate_hz=0.0)
        with pytest.raises(ConfigurationError):
            StartupConfig(watchdog_time_s=0.0)

    def test_progression_to_running(self):
        seq = StartupSequencer(StartupConfig(sample_rate_hz=1000.0,
                                             settling_time_s=0.01))
        assert seq.state is StartupState.POWER_ON
        seq.step(False, False)
        assert seq.state is StartupState.DRIVE_SPINUP
        for _ in range(5):
            seq.step(False, False)
        assert seq.state is StartupState.DRIVE_SPINUP
        seq.step(True, False)
        assert seq.state is StartupState.PLL_LOCKED
        seq.step(True, True)
        assert seq.state is StartupState.OUTPUT_SETTLING
        for _ in range(20):
            seq.step(True, True)
        assert seq.running
        assert seq.turn_on_time_s is not None

    def test_settling_restarts_on_excursion(self):
        seq = StartupSequencer(StartupConfig(sample_rate_hz=1000.0,
                                             settling_time_s=0.01))
        seq.step(False, False)
        seq.step(True, False)
        seq.step(True, True)
        for _ in range(5):
            seq.step(True, True)
        seq.step(True, False)  # amplitude excursion restarts the wait
        for _ in range(9):
            seq.step(True, True)
        assert not seq.running
        for _ in range(2):
            seq.step(True, True)
        assert seq.running

    def test_unlock_falls_back_to_spinup(self):
        seq = StartupSequencer(StartupConfig(sample_rate_hz=1000.0))
        seq.step(False, False)
        seq.step(True, False)
        assert seq.state is StartupState.PLL_LOCKED
        seq.step(False, False)
        assert seq.state is StartupState.DRIVE_SPINUP

    def test_watchdog_failure(self):
        seq = StartupSequencer(StartupConfig(sample_rate_hz=1000.0,
                                             watchdog_time_s=0.05))
        for _ in range(100):
            seq.step(False, False)
        assert seq.failed
        assert not seq.running

    def test_reset(self):
        seq = StartupSequencer(StartupConfig(sample_rate_hz=1000.0))
        seq.step(True, True)
        seq.reset()
        assert seq.state is StartupState.POWER_ON
        assert seq.turn_on_time_s is None


class TestCalibrationMath:
    def test_fit_scale_factor(self):
        rates = [-200.0, 0.0, 200.0]
        channel = [-0.4 + 0.05, 0.05, 0.4 + 0.05]
        cal = fit_scale_factor(rates, channel)
        assert cal.channel_per_dps == pytest.approx(0.002)
        assert cal.channel_offset == pytest.approx(0.05)
        assert cal.residual_percent_fs == pytest.approx(0.0, abs=1e-9)

    def test_fit_scale_factor_validation(self):
        with pytest.raises(CalibrationError):
            fit_scale_factor([0.0], [0.0])
        with pytest.raises(CalibrationError):
            fit_scale_factor([0.0, 1.0], [0.5, 0.5])

    def test_select_reference_slope_prefers_room_temperature(self):
        from repro.gyro import select_reference_slope

        assert select_reference_slope((-40.0, 25.0, 85.0),
                                      (2.0, 3.0, 4.0)) == 3.0
        # sweep without the reference temperature: first slope wins
        assert select_reference_slope((0.0, 60.0), (2.0, 4.0)) == 2.0

    def test_select_reference_slope_rejects_zero(self):
        # regression: the old `reference_slope or ratios[0]` fallback
        # silently replaced a measured-zero reference slope
        from repro.common.exceptions import CalibrationError
        from repro.gyro import select_reference_slope

        with pytest.raises(CalibrationError):
            select_reference_slope((-40.0, 25.0, 85.0), (2.0, 0.0, 4.0))
        with pytest.raises(CalibrationError):
            select_reference_slope((25.0,), ())

    def test_fit_temperature_compensation(self):
        temps = [-40.0, 25.0, 85.0]
        offsets = [(-65.0) * 0.01, 0.0, 60.0 * 0.01]
        ratios = [1.0 - (-65.0) * 1e-4, 1.0, 1.0 - 60.0 * 1e-4]
        cfg = fit_temperature_compensation(temps, offsets, ratios)
        assert cfg.offset_poly[1] == pytest.approx(0.01, rel=1e-6)
        assert cfg.sensitivity_poly[0] == pytest.approx(-1e-4, rel=1e-6)

    def test_fit_temperature_validation(self):
        with pytest.raises(CalibrationError):
            fit_temperature_compensation([25.0], [0.0], [1.0])

    def test_null_and_sensitivity_errors(self):
        assert null_voltage_error(2.53) == pytest.approx(0.03)
        assert sensitivity_error_percent(0.00525) == pytest.approx(5.0)
        with pytest.raises(CalibrationError):
            sensitivity_error_percent(0.005, target_v_per_dps=0.0)


class TestGyroConditioner:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GyroConditionerConfig(status_update_interval=0)

    def test_q114_round_trip(self):
        from repro.gyro.conditioning import _to_q114
        for value in (-1.5, -0.25, 0.0, 0.33, 1.2):
            clipped = max(-2.0, min(2.0 - 1 / 16384, value))
            assert q114_to_float(_to_q114(value)) == pytest.approx(clipped, abs=1e-4)

    @DETERMINISM_SETTINGS
    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_q114_every_word_round_trips(self, word):
        # decode -> encode is the identity on all 16-bit register words
        from repro.gyro.conditioning import _to_q114
        value = q114_to_float(word)
        assert -2.0 <= value <= 2.0 - 1.0 / 16384.0
        assert _to_q114(value) == word

    @DETERMINISM_SETTINGS
    @given(st.floats(min_value=-4.0, max_value=4.0))
    def test_q114_encode_quantises_and_saturates(self, value):
        from repro.gyro.conditioning import _to_q114
        decoded = q114_to_float(_to_q114(value))
        expected = max(-32768, min(32767, round(value * 16384.0))) / 16384.0
        assert decoded == expected
        # quantisation error bounded by half an LSB inside the range
        if -2.0 < value < 2.0 - 1.0 / 16384.0:
            assert abs(decoded - value) <= 0.5 / 16384.0

    @DETERMINISM_SETTINGS
    @given(st.floats(min_value=-2.0, max_value=2.0 - 1.0 / 16384.0))
    def test_q114_encode_decode_idempotent(self, value):
        from repro.gyro.conditioning import _to_q114
        once = q114_to_float(_to_q114(value))
        assert q114_to_float(_to_q114(once)) == once

    def test_step_returns_three_words(self):
        cond = GyroConditioner()
        drive, control, rate = cond.step(0.0, 0.0)
        assert control == 0.0  # open loop by default
        assert -1.0 <= drive <= 1.0
        assert -1.0 <= rate <= 1.0

    def test_closed_loop_produces_control_word(self):
        cond = GyroConditioner(GyroConditionerConfig(closed_loop=True))
        w = 2 * math.pi * 15000.0
        control = 0.0
        for i in range(2000):
            ref = math.sin(w * i / FS)
            _, control, _ = cond.step(0.5 * ref, 0.1 * ref)
        assert cond.config.closed_loop
        # the control word is exercised (non-trivially zero over the run)
        assert isinstance(control, float)

    def test_status_registers_update(self):
        cond = GyroConditioner(GyroConditionerConfig(status_update_interval=4))
        for _ in range(16):
            cond.step(0.0, 0.0)
        status = cond.registers.register("dsp_status")
        assert status.read_field("pll_locked") == 0
        assert status.read_field("closed_loop") == 0
        # drive gain register reflects the AGC start-up gain
        gain = q114_to_float(cond.registers.read("dsp_drive_gain"))
        assert gain == pytest.approx(cond.drive_loop.amplitude_control, abs=0.01)

    def test_status_refresh_writes_the_flags_as_one_word(self):
        cond = GyroConditioner(GyroConditionerConfig(closed_loop=True))
        cond.startup._failed = True
        status = cond.registers.register("dsp_status")
        status.hw_write(0xFFFF)
        cond._refresh_registers()
        assert {name: status.read_field(name) for name in status.fields} \
            == {"pll_locked": 0, "amplitude_settled": 0, "running": 0,
                "startup_failed": 1, "closed_loop": 1}
        assert status.read() == 0b11000

    def test_fixed_point_mode_sets_formats(self):
        cond = GyroConditioner(GyroConditionerConfig(fixed_point=True))
        assert cond.config.drive.output_format is not None
        assert cond.config.sense.output_format is not None

    def test_reset(self):
        cond = GyroConditioner()
        for _ in range(200):
            cond.step(0.1, 0.05)
        cond.reset()
        assert cond.rate_dps == 0.0
        assert not cond.running
