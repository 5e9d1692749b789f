"""Offset, temperature and scale compensation IPs of the rate channel.

The paper's sense chain includes "demodulators, filters,
temperature/offset compensation and modulators".  After demodulation and
low-pass filtering the rate signal still contains the zero-rate offset,
its temperature drift, the residual quadrature leakage and the raw
(uncalibrated) scale factor; these blocks remove them:

* :class:`OffsetCompensation` — subtracts a programmable static offset.
* :class:`TemperatureCompensation` — polynomial offset and sensitivity
  correction against the measured die temperature.
* :class:`QuadratureCancellation` — subtracts a programmable fraction of
  the quadrature channel from the rate channel.
* :class:`RateScaler` — converts the compensated channel value into °/s
  and into the normalised output word driving the rate-output DAC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..common.exceptions import ConfigurationError
from ..common.fixedpoint import QFormat, quantize
from ..common.units import ROOM_TEMPERATURE_C


class OffsetCompensation:
    """Programmable static offset subtraction."""

    def __init__(self, offset: float = 0.0,
                 output_format: Optional[QFormat] = None):
        self.offset = float(offset)
        self.output_format = output_format

    def step(self, x: float) -> float:
        """Subtract the programmed offset from one sample."""
        y = x - self.offset
        if self.output_format is not None:
            y = quantize(y, self.output_format)
        return y


@dataclass
class TemperatureCompensationConfig:
    """Polynomial temperature-compensation coefficients.

    The correction uses the temperature deviation ``dT = T - 25 °C``:

    * offset correction: ``offset_poly[0] + offset_poly[1]*dT + ...``
      is subtracted from the signal;
    * sensitivity correction: the signal is divided by
      ``1 + sens_poly[0]*dT + sens_poly[1]*dT**2 + ...``.
    """

    offset_poly: Sequence[float] = (0.0, 0.0)
    sensitivity_poly: Sequence[float] = (0.0,)

    def __post_init__(self) -> None:
        if len(self.offset_poly) == 0:
            raise ConfigurationError("offset polynomial needs at least one coefficient")


class TemperatureCompensation:
    """Polynomial offset/sensitivity correction vs measured temperature."""

    def __init__(self, config: Optional[TemperatureCompensationConfig] = None,
                 output_format: Optional[QFormat] = None):
        self.config = config or TemperatureCompensationConfig()
        self.output_format = output_format

    # Both corrections sum their terms left to right in plain floats, as
    # the compiled engine's kernels do: ``sum()`` compensates its rounding
    # from Python 3.12 on, and ``dT ** i`` is CPython's power, which a
    # NumPy array power does not always match.

    def offset_correction(self, temperature_c: float) -> float:
        """Offset predicted by the polynomial at the given temperature."""
        dt_c = temperature_c - ROOM_TEMPERATURE_C
        total = 0.0
        for i, c in enumerate(self.config.offset_poly):
            total += c * dt_c ** i
        return float(total)

    def sensitivity_correction(self, temperature_c: float) -> float:
        """Multiplicative sensitivity deviation at the given temperature."""
        dt_c = temperature_c - ROOM_TEMPERATURE_C
        total = 0.0
        for i, c in enumerate(self.config.sensitivity_poly):
            total += c * dt_c ** (i + 1)
        return float(1.0 + total)

    def step(self, x: float, temperature_c: float = ROOM_TEMPERATURE_C) -> float:
        """Apply both corrections to one sample."""
        corrected = (x - self.offset_correction(temperature_c))
        divisor = self.sensitivity_correction(temperature_c)
        if divisor == 0.0:
            raise ConfigurationError("sensitivity correction factor reached zero")
        y = corrected / divisor
        if self.output_format is not None:
            y = quantize(y, self.output_format)
        return y


class QuadratureCancellation:
    """Subtract a programmable fraction of the quadrature channel."""

    def __init__(self, coefficient: float = 0.0,
                 output_format: Optional[QFormat] = None):
        self.coefficient = float(coefficient)
        self.output_format = output_format

    def step(self, rate_channel: float, quadrature_channel: float) -> float:
        """Remove quadrature leakage from one rate-channel sample."""
        y = rate_channel - self.coefficient * quadrature_channel
        if self.output_format is not None:
            y = quantize(y, self.output_format)
        return y


@dataclass
class RateScalerConfig:
    """Calibration of the rate output.

    Attributes:
        volts_per_dps: target analog sensitivity (Table 1: 5 mV/°/s).
        full_scale_dps: rate mapped to a full-scale output word (±).
        scale_dps_per_unit: demodulated-channel units to °/s conversion,
            set by calibration.
    """

    volts_per_dps: float = 0.005
    full_scale_dps: float = 300.0
    scale_dps_per_unit: float = 1.0

    def __post_init__(self) -> None:
        if self.volts_per_dps <= 0:
            raise ConfigurationError("sensitivity must be > 0")
        if self.full_scale_dps <= 0:
            raise ConfigurationError("full-scale rate must be > 0")


class RateScaler:
    """Convert the compensated channel value to °/s and to the output word."""

    def __init__(self, config: Optional[RateScalerConfig] = None,
                 output_format: Optional[QFormat] = None):
        self.config = config or RateScalerConfig()
        self.output_format = output_format

    def to_dps(self, channel_value: float) -> float:
        """Convert a compensated channel sample to °/s."""
        return channel_value * self.config.scale_dps_per_unit

    def to_output_word(self, rate_dps: float) -> float:
        """Convert a rate in °/s to a normalised ±1 output word (clipped)."""
        word = rate_dps / self.config.full_scale_dps
        word = float(np.clip(word, -1.0, 1.0))
        if self.output_format is not None:
            word = quantize(word, self.output_format)
        return word

    def step(self, channel_value: float) -> float:
        """Channel sample → normalised output word in one call."""
        return self.to_output_word(self.to_dps(channel_value))

    def calibrate(self, measured_channel_per_dps: float) -> None:
        """Set the channel→°/s factor from a measured response slope."""
        if measured_channel_per_dps == 0:
            raise ConfigurationError("measured response slope cannot be zero")
        self.config.scale_dps_per_unit = 1.0 / measured_channel_per_dps

    def output_volts_per_dps(self, output_span_v: float) -> float:
        """Analog sensitivity implied by an output-DAC span (V per FS word)."""
        return output_span_v / self.config.full_scale_dps
