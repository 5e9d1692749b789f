"""Secondary (sense) chain: demodulation, filtering and compensation.

The rate information rides on the ~15 kHz drive carrier: the Coriolis
force is proportional to the product of the angular rate and the primary
velocity, so the secondary pick-off is an amplitude-modulated version of
the drive reference.  The sense chain recovers it:

1. I/Q synchronous demodulation against the drive-locked NCO references
   (in-phase → Coriolis/rate channel, quadrature → quadrature error);
2. quadrature cancellation;
3. a narrow Butterworth low-pass that sets the output bandwidth
   (Table 1: 3 dB bandwidth 25–75 Hz);
4. static offset and polynomial temperature compensation;
5. scaling to °/s and to the normalised rate-output word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..common.exceptions import ConfigurationError
from ..common.fixedpoint import QFormat
from ..dsp.compensation import (
    OffsetCompensation,
    QuadratureCancellation,
    RateScaler,
    RateScalerConfig,
    TemperatureCompensation,
    TemperatureCompensationConfig,
)
from ..dsp.iir import IirFilter, check_filter_order
from ..dsp.mixer import QuadratureDemodulator


@dataclass
class SenseChainConfig:
    """Configuration of the rate (sense) channel.

    Attributes:
        sample_rate_hz: DSP sample rate.
        demod_cutoff_hz: demodulator post-mixer low-pass cutoff.
        output_bandwidth_hz: -3 dB bandwidth of the output filter
            (Table 1 reports 25–75 Hz; 50 Hz is the platform default).
        output_filter_order: order of the Butterworth output filter.
        quadrature_coefficient: quadrature cancellation coefficient.
        offset: static offset removed after filtering (channel units).
        temperature: polynomial temperature-compensation coefficients.
        scaler: rate scaling / calibration configuration.
        output_format: optional fixed-point format (prototype mode).
    """

    sample_rate_hz: float = 120_000.0
    demod_cutoff_hz: float = 800.0
    output_bandwidth_hz: float = 50.0
    output_filter_order: int = 4
    quadrature_coefficient: float = 0.0
    offset: float = 0.0
    temperature: TemperatureCompensationConfig = field(
        default_factory=TemperatureCompensationConfig)
    scaler: RateScalerConfig = field(default_factory=RateScalerConfig)
    output_format: Optional[QFormat] = None

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise ConfigurationError("sample rate must be > 0")
        if not 0 < self.output_bandwidth_hz < self.sample_rate_hz / 2:
            raise ConfigurationError("output bandwidth must be between 0 and Nyquist")
        check_filter_order(self.output_filter_order)


class SenseChain:
    """Open-loop rate readout chain."""

    def __init__(self, config: Optional[SenseChainConfig] = None):
        self.config = config or SenseChainConfig()
        cfg = self.config
        self.demodulator = QuadratureDemodulator(cfg.demod_cutoff_hz,
                                                 cfg.sample_rate_hz,
                                                 cfg.output_format)
        self.output_filter = IirFilter.butterworth_low_pass(
            cfg.output_filter_order, cfg.output_bandwidth_hz, cfg.sample_rate_hz,
            output_format=cfg.output_format, name="rate_output_filter")
        self.quadrature_filter = IirFilter.butterworth_low_pass(
            2, cfg.output_bandwidth_hz, cfg.sample_rate_hz,
            name="quadrature_filter")
        self.quadrature_cancel = QuadratureCancellation(cfg.quadrature_coefficient,
                                                        cfg.output_format)
        self.offset_comp = OffsetCompensation(cfg.offset, cfg.output_format)
        self.temperature_comp = TemperatureCompensation(cfg.temperature,
                                                        cfg.output_format)
        self.scaler = RateScaler(cfg.scaler, cfg.output_format)
        self._rate_dps = 0.0
        self._rate_word = 0.0
        self._rate_channel = 0.0
        self._quadrature_channel = 0.0

    # -- observables -----------------------------------------------------------

    @property
    def rate_dps(self) -> float:
        """Latest compensated rate estimate in °/s."""
        return self._rate_dps

    @property
    def rate_word(self) -> float:
        """Latest normalised output word (drives the rate-output DAC)."""
        return self._rate_word

    @property
    def rate_channel(self) -> float:
        """Filtered, uncompensated in-phase (Coriolis) channel value."""
        return self._rate_channel

    @property
    def quadrature_channel(self) -> float:
        """Filtered quadrature-error channel value."""
        return self._quadrature_channel

    # -- operation --------------------------------------------------------------

    def reset(self) -> None:
        """Clear all filter state."""
        self.demodulator.reset()
        self.output_filter.reset()
        self.quadrature_filter.reset()
        self._rate_dps = 0.0
        self._rate_word = 0.0
        self._rate_channel = 0.0
        self._quadrature_channel = 0.0

    def step(self, secondary_pickoff_norm: float, ref_sin: float, ref_cos: float,
             temperature_c: float = 25.0) -> Tuple[float, float]:
        """Process one secondary pick-off sample.

        Args:
            secondary_pickoff_norm: normalised ADC sample of the secondary
                pick-off.
            ref_sin: quadrature NCO reference from the drive loop.
            ref_cos: in-phase (drive) NCO reference from the drive loop.
            temperature_c: measured die temperature used for compensation.

        Returns:
            ``(rate_dps, rate_word)``.
        """
        # Coriolis force is proportional to the primary *velocity*, which is
        # in phase with the drive (cos) reference, so the in-phase channel
        # carries the rate and the quadrature channel the quadrature error.
        i_chan, q_chan = self.demodulator.step(secondary_pickoff_norm,
                                               ref_cos, ref_sin)
        raw = self.quadrature_cancel.step(i_chan, q_chan)
        self._rate_channel = self.output_filter.step(raw)
        self._quadrature_channel = self.quadrature_filter.step(q_chan)
        compensated = self.offset_comp.step(self._rate_channel)
        compensated = self.temperature_comp.step(compensated, temperature_c)
        self._rate_dps = self.scaler.to_dps(compensated)
        self._rate_word = self.scaler.to_output_word(self._rate_dps)
        return self._rate_dps, self._rate_word

    # -- calibration hooks -------------------------------------------------------

    def calibrate_scale(self, channel_per_dps: float) -> None:
        """Set the channel→°/s conversion from a measured response slope."""
        self.scaler.calibrate(channel_per_dps)

    def calibrate_offset(self, channel_offset: float) -> None:
        """Set the static offset subtracted after the output filter."""
        self.offset_comp.offset = float(channel_offset)

    def calibrate_temperature(self, config: TemperatureCompensationConfig) -> None:
        """Install new temperature-compensation polynomials."""
        self.temperature_comp.config = config
