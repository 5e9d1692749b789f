"""Successive-approximation ADC model.

The paper's front end performs "signal acquisition by means of SAR ADCs,
amplifiers and basic filters".  The model captures the effects the
digital chain has to live with: quantisation, input-range clipping,
offset and gain error (with temperature drift), integral nonlinearity
and input-referred noise.  Resolution is programmable, which is one of
the front-end parameters the platform can trim ("number of ADC bits").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..common.exceptions import ConfigurationError
from ..common.noise import BufferedGaussianNoise
from ..common.units import ROOM_TEMPERATURE_C


@dataclass
class AdcConfig:
    """Static configuration of a SAR ADC channel.

    Attributes:
        bits: converter resolution (6..16 supported by the IP portfolio).
        vref: reference voltage; the bipolar input range is ±vref.
        offset_error_v: input-referred offset at 25 °C.
        gain_error: relative gain error at 25 °C (0.001 = 0.1 %).
        inl_lsb: peak integral nonlinearity in LSBs (parabolic bow model).
        noise_rms_v: input-referred RMS noise voltage.
        offset_tc_v_per_c: offset drift [V/°C].
        gain_tc_ppm_per_c: gain drift [ppm/°C].
    """

    bits: int = 12
    vref: float = 2.5
    offset_error_v: float = 0.0
    gain_error: float = 0.0
    inl_lsb: float = 0.0
    noise_rms_v: float = 0.0
    offset_tc_v_per_c: float = 0.0
    gain_tc_ppm_per_c: float = 0.0

    def __post_init__(self) -> None:
        if not 6 <= self.bits <= 16:
            raise ConfigurationError(f"ADC resolution must be 6..16 bits, got {self.bits}")
        if self.vref <= 0:
            raise ConfigurationError("vref must be > 0")
        if self.noise_rms_v < 0:
            raise ConfigurationError("noise must be >= 0")


class SarAdc:
    """Behavioural SAR ADC with bipolar input range ±vref.

    Codes are signed integers in ``[-2**(bits-1), 2**(bits-1) - 1]``.
    """

    def __init__(self, config: AdcConfig, seed: Optional[int] = 0):
        self.config = config
        self._rng = np.random.default_rng(seed)
        self._noise = BufferedGaussianNoise(config.noise_rms_v, seed)
        self._update_resolution()

    def _update_resolution(self) -> None:
        bits = self.config.bits
        self._code_min = -(1 << (bits - 1))
        self._code_max = (1 << (bits - 1)) - 1
        self._lsb = 2.0 * self.config.vref / (1 << bits)

    @property
    def lsb_volts(self) -> float:
        """Voltage weight of one LSB."""
        return self._lsb

    @property
    def full_scale_v(self) -> float:
        """Positive full-scale input voltage."""
        return self.config.vref

    @property
    def code_range(self) -> tuple:
        """(min_code, max_code) of the signed output."""
        return self._code_min, self._code_max

    def set_resolution(self, bits: int) -> None:
        """Reprogram the converter resolution (front-end trim parameter)."""
        if not 6 <= bits <= 16:
            raise ConfigurationError(f"ADC resolution must be 6..16 bits, got {bits}")
        self.config.bits = bits
        self._update_resolution()

    def _apply_errors(self, voltage: float, temperature_c: float) -> float:
        cfg = self.config
        dt_c = temperature_c - ROOM_TEMPERATURE_C
        gain = (1.0 + cfg.gain_error) * (1.0 + cfg.gain_tc_ppm_per_c * 1e-6 * dt_c)
        offset = cfg.offset_error_v + cfg.offset_tc_v_per_c * dt_c
        # a Python float overflows to inf silently, where a NumPy scalar
        # input would warn before the rounding raises
        distorted = float(voltage) * gain + offset
        if cfg.inl_lsb:
            # parabolic INL bow, zero at the range ends, peak at mid-scale
            normalized = distorted / cfg.vref
            normalized = -1.0 if normalized < -1.0 else (1.0 if normalized > 1.0 else normalized)
            distorted += cfg.inl_lsb * self._lsb * (1.0 - normalized ** 2)
        if cfg.noise_rms_v:
            distorted += self._noise.next()
        return distorted

    def convert(self, voltage: float,
                temperature_c: float = ROOM_TEMPERATURE_C) -> int:
        """Convert an input voltage to a signed output code."""
        distorted = self._apply_errors(voltage, temperature_c)
        code = int(math.floor(distorted / self._lsb + 0.5))
        return max(self._code_min, min(self._code_max, code))

    def code_to_voltage(self, code: int) -> float:
        """Ideal voltage corresponding to an output code."""
        return code * self._lsb

    def sample(self, voltage: float,
               temperature_c: float = ROOM_TEMPERATURE_C) -> float:
        """Convert and immediately express the result back in volts.

        This is the convenient form for the sample-domain co-simulation:
        the returned value is the quantised, clipped, error-afflicted
        version of the input.
        """
        return self.code_to_voltage(self.convert(voltage, temperature_c))

    def normalized_sample(self, voltage: float,
                          temperature_c: float = ROOM_TEMPERATURE_C) -> float:
        """Convert and scale to a normalised full-scale of ±1.0.

        The DSP chain works on normalised fixed-point samples, so this is
        the value handed to the digital section.
        """
        return self.sample(voltage, temperature_c) / self.config.vref
