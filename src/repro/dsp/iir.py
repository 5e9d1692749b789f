"""IIR filter IPs (biquad sections and design helpers).

IIR sections implement the narrow low-pass filters of the rate channel
(the paper's 3 dB bandwidth row: 25–75 Hz) and the loop filters inside
the PLL and AGC, where an FIR of equivalent selectivity would be far too
long for the hardwired datapath.

The Butterworth helpers design their sections with
:func:`_butterworth_sos`, a NumPy transcription of SciPy's
``butter(order, cutoff, btype, fs=fs, output="sos")`` that gives the
same bytes (``tests/test_dsp.py`` compares the two), so building a
platform does not import ``scipy.signal``.  Only the analysis helpers
(:meth:`IirFilter.process`, the frequency responses) load it, when they
are called.
"""

from __future__ import annotations

import numbers
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..common.block import Block
from ..common.exceptions import ConfigurationError
from ..common.fixedpoint import QFormat, quantize


class BiquadFilter(Block):
    """Transposed direct-form-II biquad with optional output quantisation."""

    def __init__(self, b: Sequence[float], a: Sequence[float],
                 output_format: Optional[QFormat] = None,
                 name: Optional[str] = None):
        super().__init__(name)
        b = list(b)
        a = list(a)
        if len(b) != 3 or len(a) != 3:
            raise ConfigurationError("biquad needs exactly 3 numerator and 3 denominator coefficients")
        if a[0] == 0:
            raise ConfigurationError("a[0] must be non-zero")
        self.b = [float(bi / a[0]) for bi in b]
        self.a = [float(ai / a[0]) for ai in a]
        self.output_format = output_format
        self._z1 = 0.0
        self._z2 = 0.0

    def step(self, x: float) -> float:
        y = self.b[0] * x + self._z1
        self._z1 = self.b[1] * x - self.a[1] * y + self._z2
        self._z2 = self.b[2] * x - self.a[2] * y
        if self.output_format is not None:
            y = quantize(y, self.output_format)
        return y

    def reset(self) -> None:
        self._z1 = 0.0
        self._z2 = 0.0

    def frequency_response(self, freqs_hz: np.ndarray,
                           sample_rate_hz: float) -> np.ndarray:
        """Complex response of the section at the given frequencies."""
        from scipy import signal as sps

        w = 2.0 * np.pi * np.asarray(freqs_hz) / sample_rate_hz
        _, h = sps.freqz(self.b, self.a, worN=w)
        return h


class IirFilter(Block):
    """Cascade of biquad sections designed from a classic prototype."""

    def __init__(self, sections: Sequence[BiquadFilter], name: Optional[str] = None):
        super().__init__(name)
        if not sections:
            raise ConfigurationError("need at least one biquad section")
        self.sections = list(sections)

    def step(self, x: float) -> float:
        for section in self.sections:
            x = section.step(x)
        return x

    def reset(self) -> None:
        for section in self.sections:
            section.reset()

    def process(self, samples: Iterable[float]) -> np.ndarray:
        """Vectorised filtering for long records (state preserved per section)."""
        from scipy import signal as sps

        x = np.asarray(list(samples), dtype=np.float64)
        for section in self.sections:
            # stream through each section using scipy with initial conditions
            zi = np.array([section._z1, section._z2])
            y, zf = sps.lfilter(section.b, section.a, x, zi=zi)
            section._z1, section._z2 = float(zf[0]), float(zf[1])
            if section.output_format is not None:
                y = np.asarray(quantize(y, section.output_format))
            x = y
        return x

    def frequency_response(self, freqs_hz: np.ndarray,
                           sample_rate_hz: float) -> np.ndarray:
        """Complex response of the cascade."""
        h = np.ones(len(np.asarray(freqs_hz)), dtype=complex)
        for section in self.sections:
            h = h * section.frequency_response(freqs_hz, sample_rate_hz)
        return h

    def three_db_bandwidth_hz(self, sample_rate_hz: float,
                              max_freq_hz: Optional[float] = None) -> float:
        """-3 dB frequency of the cascade's low-pass response."""
        max_freq = max_freq_hz or sample_rate_hz / 2.0
        freqs = np.linspace(0.01, max_freq, 4096)
        mag = np.abs(self.frequency_response(freqs, sample_rate_hz))
        ref = mag[0]
        below = np.nonzero(mag < ref / np.sqrt(2.0))[0]
        if below.size == 0:
            return float(max_freq)
        return float(freqs[below[0]])

    @classmethod
    def butterworth_low_pass(cls, order: int, cutoff_hz: float,
                             sample_rate_hz: float,
                             output_format: Optional[QFormat] = None,
                             name: Optional[str] = None) -> "IirFilter":
        """Design a Butterworth low-pass as a cascade of biquads."""
        return cls._butterworth(order, cutoff_hz, sample_rate_hz, False,
                                output_format, name)

    @classmethod
    def butterworth_high_pass(cls, order: int, cutoff_hz: float,
                              sample_rate_hz: float,
                              output_format: Optional[QFormat] = None,
                              name: Optional[str] = None) -> "IirFilter":
        """Design a Butterworth high-pass as a cascade of biquads."""
        return cls._butterworth(order, cutoff_hz, sample_rate_hz, True,
                                output_format, name)

    @classmethod
    def _butterworth(cls, order, cutoff_hz, sample_rate_hz, high_pass,
                     output_format, name) -> "IirFilter":
        order = check_filter_order(order)
        nyquist = sample_rate_hz / 2
        # the design works on cutoff / Nyquist, which must not underflow
        if not 0 < cutoff_hz < nyquist or cutoff_hz / nyquist == 0:
            raise ConfigurationError("cutoff must be between 0 and Nyquist")
        sos = _butterworth_sos(order, cutoff_hz, sample_rate_hz, high_pass)
        sections = [BiquadFilter(section[:3], section[3:],
                                 output_format=output_format)
                    for section in sos]
        return cls(sections, name=name)


def check_filter_order(order) -> int:
    """Validate a filter order and return it as an int.

    Any whole number >= 1 is accepted, as ``scipy.signal.butter`` accepts
    it: an int, a NumPy integer or an integral float such as ``2.0``.

    Raises:
        ConfigurationError: ``order`` is not a real number, not a whole
            number, or < 1.
    """
    whole = (isinstance(order, numbers.Integral)
             or isinstance(order, numbers.Real) and float(order).is_integer())
    if not whole or order < 1:
        raise ConfigurationError(
            f"filter order must be a whole number >= 1, got {order!r}")
    return int(order)


def _butterworth_sos(order: int, cutoff_hz: float, sample_rate_hz: float,
                     high_pass: bool) -> np.ndarray:
    """SciPy 1.17's ``butter(order, cutoff_hz, "high" if high_pass else
    "low", fs=sample_rate_hz, output="sos")``, operation for operation.

    The steps are SciPy's ``buttap`` → ``lp2lp_zpk``/``lp2hp_zpk`` →
    ``bilinear_zpk`` → ``zpk2sos`` with ``nearest`` pairing.  The
    ``zpk2sos`` loop keeps only the branches these designs reach: every
    zero is real (at -1, +1 or the 0 an odd order adds) and real poles
    come in pairs, so each section takes two real zeros and either a
    conjugate pole pair or two real poles.  ``order`` is a whole number
    >= 1 and ``cutoff_hz / (sample_rate_hz / 2)`` lies in (0, 1).
    """
    # analog prototype (buttap); the middle pole of an odd order is real
    z = np.asarray([], dtype=np.float64)
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    p = -np.exp(1j * np.pi * m / (2 * order))
    k = 1.0
    # pre-warp the normalised cutoff, as iirfilter does with fs = 2
    wn = np.asarray(cutoff_hz, dtype=np.float64) / (float(sample_rate_hz) / 2)
    wo = float(2 * 2.0 * np.tan(np.pi * wn / 2.0))
    if high_pass:
        # lp2hp_zpk: invert about the unit circle; zeros at infinity go to 0
        k = k * np.real(np.prod(-z) / np.prod(-p))
        z, p = np.zeros(order), wo / p
    else:
        z, p, k = wo * z, wo * p, k * wo ** order
    # bilinear_zpk with fs = 2; zeros at infinity go to Nyquist
    fs2 = 2.0 * 2.0
    k = k * np.real(np.prod(fs2 - z) / np.prod(fs2 - p))
    z = np.concatenate(((fs2 + z) / (fs2 - z), -np.ones(len(p) - len(z))))
    p = (fs2 + p) / (fs2 - p)
    # zpk2sos, nearest pairing, the "worst" pole (nearest the unit
    # circle) into the last section
    n_sections = (order + 1) // 2
    if order % 2:
        p = np.concatenate((p, [0.]))
        z = np.concatenate((z, [0.]))
    z = np.concatenate(_cplxreal(z))
    p = np.concatenate(_cplxreal(p))
    sos = np.zeros((n_sections, 6))
    for si in range(n_sections - 1, -1, -1):
        p1_idx = np.argmin(np.abs(1 - np.abs(p)))
        p1 = p[p1_idx]
        p = np.delete(p, p1_idx)
        if np.isreal(p1):
            reals = np.flatnonzero(np.isreal(p))
            p2_idx = reals[np.argmin(np.abs(1 - np.abs(p[reals])))]
            p2 = p[p2_idx]
            p = np.delete(p, p2_idx)
        else:
            p2 = p1.conj()
        pair = []
        for _ in range(2):
            z_idx = np.argsort(np.abs(z - p1))[0]
            pair.append(z[z_idx])
            z = np.delete(z, z_idx)
        sos[si, :3] = _poly(pair)
        sos[si, 3:] = _poly([p1, p2])
    sos[0][:3] *= k
    return sos


def _cplxreal(z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """SciPy's ``_cplxreal``: ``(complex, real)`` parts of a 1-D array,
    one element (the positive-imaginary one) per conjugate pair, each
    part sorted by real part."""
    tol = 100 * np.finfo(np.float64).eps
    z = z[np.lexsort((abs(z.imag), z.real))]
    real_indices = abs(z.imag) <= tol * abs(z)
    zr = z[real_indices].real
    if len(zr) == len(z):
        return np.array([]), zr
    z = z[~real_indices]
    zp = z[z.imag > 0]
    zn = z[z.imag < 0]
    # sort each run of (nearly) equal real parts by imaginary part
    same_real = np.diff(zp.real) <= tol * abs(zp[:-1])
    diffs = np.diff(np.concatenate(([0], same_real, [0])))
    run_starts = np.nonzero(diffs > 0)[0]
    run_stops = np.nonzero(diffs < 0)[0] + 1
    for start, stop in zip(run_starts, run_stops):
        for chunk in (zp[start:stop], zn[start:stop]):
            chunk[...] = chunk[np.lexsort([abs(chunk.imag)])]
    # average out the rounding between the members of each pair
    return (zp + zn.conj()) / 2, zr


def _poly(roots) -> np.ndarray:
    """SciPy's own ``poly`` for two real roots or a conjugate pair: the
    (real) coefficients of the monic polynomial with these roots."""
    roots = np.asarray(roots)
    a = np.ones((1,), dtype=roots.dtype)
    one = np.ones_like(roots[0])
    for root in roots:
        a = np.convolve(a, np.stack((one, -root)))
    return a.real


class OnePoleLowPass(Block):
    """Single-pole IIR low-pass ``y += alpha * (x - y)``.

    The cheapest smoothing element in the DSP portfolio; used inside the
    AGC amplitude detector and the PLL phase-detector post-filter.
    """

    def __init__(self, cutoff_hz: float, sample_rate_hz: float,
                 output_format: Optional[QFormat] = None,
                 name: Optional[str] = None):
        super().__init__(name)
        if cutoff_hz <= 0 or cutoff_hz >= sample_rate_hz / 2:
            raise ConfigurationError("cutoff must be between 0 and Nyquist")
        self.cutoff_hz = float(cutoff_hz)
        self.sample_rate_hz = float(sample_rate_hz)
        self.alpha = float(1.0 - np.exp(-2.0 * np.pi * cutoff_hz / sample_rate_hz))
        self.output_format = output_format
        self._state = 0.0

    def step(self, x: float) -> float:
        self._state += self.alpha * (x - self._state)
        if self.output_format is not None:
            self._state = quantize(self._state, self.output_format)
        return self._state

    def reset(self) -> None:
        self._state = 0.0
