"""Continuous-time (analog) filter models for the front end.

Only "basic filters" live in the analog domain — anti-aliasing ahead of
the SAR ADCs and smoothing after the DACs.  They are modelled as one- or
two-pole low-pass sections discretised at the simulation rate.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..common.block import Block
from ..common.exceptions import ConfigurationError


class SinglePoleLowPass(Block):
    """First-order RC low-pass, discretised with the impulse-invariant map."""

    def __init__(self, cutoff_hz: float, sample_rate_hz: float,
                 name: Optional[str] = None):
        super().__init__(name)
        if cutoff_hz <= 0 or sample_rate_hz <= 0:
            raise ConfigurationError("cutoff and sample rate must be > 0")
        if cutoff_hz >= sample_rate_hz / 2.0:
            raise ConfigurationError(
                f"cutoff {cutoff_hz} Hz must be below Nyquist "
                f"({sample_rate_hz / 2.0} Hz)")
        self.cutoff_hz = float(cutoff_hz)
        self.sample_rate_hz = float(sample_rate_hz)
        self._alpha = float(1.0 - np.exp(-2.0 * np.pi * cutoff_hz
                                         / sample_rate_hz))
        self._state = 0.0

    def step(self, x: float) -> float:
        self._state += self._alpha * (x - self._state)
        return self._state

    def reset(self) -> None:
        self._state = 0.0


class AntiAliasFilter(Block):
    """Two cascaded RC sections used ahead of each SAR ADC."""

    def __init__(self, cutoff_hz: float, sample_rate_hz: float,
                 name: Optional[str] = None):
        super().__init__(name)
        self._first = SinglePoleLowPass(cutoff_hz, sample_rate_hz)
        self._second = SinglePoleLowPass(cutoff_hz, sample_rate_hz)
        self.cutoff_hz = float(cutoff_hz)
        self.sample_rate_hz = float(sample_rate_hz)

    def step(self, x: float) -> float:
        return self._second.step(self._first.step(x))

    def reset(self) -> None:
        self._first.reset()
        self._second.reset()

    def magnitude_at(self, freq_hz: float) -> float:
        """Continuous-time magnitude response of the two-pole section."""
        ratio = freq_hz / self.cutoff_hz
        return 1.0 / (1.0 + ratio ** 2)


class SmoothingFilter(SinglePoleLowPass):
    """Post-DAC reconstruction filter (single pole)."""
