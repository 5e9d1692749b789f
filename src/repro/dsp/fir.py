"""FIR filter IPs for the hardwired DSP block.

The DSP block of Fig. 2 "contains a chain of IPs for signal elaboration"
including FIR/IIR filters.  The FIR model is bit-true capable: when a
:class:`~repro.common.fixedpoint.QFormat` is supplied, coefficients and
the output are quantised, reproducing the word-length effects the RTL
implementation adds over the floating-point (MATLAB-level) model.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

import numpy as np

from ..common.block import Block
from ..common.exceptions import ConfigurationError
from ..common.fixedpoint import QFormat, quantize


class FirFilter(Block):
    """Direct-form FIR filter with optional fixed-point quantisation."""

    def __init__(self, coefficients: Sequence[float],
                 output_format: Optional[QFormat] = None,
                 coefficient_format: Optional[QFormat] = None,
                 name: Optional[str] = None):
        super().__init__(name)
        coeffs = np.asarray(list(coefficients), dtype=np.float64)
        if coeffs.size == 0:
            raise ConfigurationError("FIR filter needs at least one coefficient")
        if coefficient_format is not None:
            coeffs = np.asarray(quantize(coeffs, coefficient_format))
        self.coefficients = coeffs
        self.output_format = output_format
        self._delay_line = deque([0.0] * coeffs.size, maxlen=coeffs.size)

    @property
    def order(self) -> int:
        """Filter order (number of taps minus one)."""
        return self.coefficients.size - 1

    def step(self, x: float) -> float:
        self._delay_line.appendleft(x)
        acc = float(np.dot(self.coefficients, np.asarray(self._delay_line)))
        if self.output_format is not None:
            acc = quantize(acc, self.output_format)
        return acc

    def reset(self) -> None:
        self._delay_line = deque([0.0] * self.coefficients.size,
                                 maxlen=self.coefficients.size)

    def process(self, samples: Iterable[float]) -> np.ndarray:
        """Vectorised convolution path for long records (state preserved)."""
        from scipy import signal as sps

        x = np.asarray(list(samples), dtype=np.float64)
        if x.size == 0:
            return np.zeros(0)
        history = np.asarray(self._delay_line)[:-1][::-1] if self.coefficients.size > 1 \
            else np.zeros(0)
        padded = np.concatenate([history, x])
        y = sps.lfilter(self.coefficients, [1.0], padded)[history.size:]
        # update the delay line with the tail of the input
        tail = padded[-self.coefficients.size:][::-1]
        self._delay_line = deque(tail.tolist(), maxlen=self.coefficients.size)
        if self.output_format is not None:
            y = np.asarray(quantize(y, self.output_format))
        return y

    def frequency_response(self, freqs_hz: np.ndarray,
                           sample_rate_hz: float) -> np.ndarray:
        """Complex frequency response at the given frequencies."""
        from scipy import signal as sps

        w = 2.0 * np.pi * np.asarray(freqs_hz) / sample_rate_hz
        _, h = sps.freqz(self.coefficients, worN=w)
        return h

    @classmethod
    def low_pass(cls, num_taps: int, cutoff_hz: float, sample_rate_hz: float,
                 **kwargs) -> "FirFilter":
        """Design a windowed-sinc low-pass FIR (Hamming window)."""
        if num_taps < 3:
            raise ConfigurationError("need at least 3 taps")
        if not 0 < cutoff_hz < sample_rate_hz / 2:
            raise ConfigurationError("cutoff must be between 0 and Nyquist")
        from scipy import signal as sps

        taps = sps.firwin(num_taps, cutoff_hz, fs=sample_rate_hz)
        return cls(taps, **kwargs)

    @classmethod
    def moving_average(cls, length: int, **kwargs) -> "FirFilter":
        """Boxcar moving-average filter of the given length."""
        if length < 1:
            raise ConfigurationError("length must be >= 1")
        return cls(np.full(length, 1.0 / length), **kwargs)
