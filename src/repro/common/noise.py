"""Noise generation and spectral-density estimation utilities.

The headline figure of merit in Table 1 is the rate-noise density in
°/s/√Hz, so the library needs (a) physically parameterised noise
sources to inject into the sensor and front-end models and (b) a robust
way to estimate a one-sided amplitude spectral density from a simulated
output record.

Every per-sample source in the co-simulated loop is a
:class:`BufferedGaussianNoise`: the reference loop draws it one value at
a time, the compiled engine's Python kernels a chunk at a time, and its
C kernels straight from the generator's bit generator with NumPy's own
``random_normal`` — one stream of values whichever mix runs.

The spectral estimates use ``scipy.signal.welch``.  They import
``scipy.signal`` when first called, not at module import: it loads
about 450 modules (``scipy.stats``, ``interpolate``, ``optimize`` and
more), roughly 1 s of every process start that the co-simulated loop
does not need.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .exceptions import ConfigurationError
from .units import BOLTZMANN, celsius_to_kelvin


def white_noise(n_samples: int, density: float, sample_rate_hz: float,
                rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Generate white noise with a one-sided amplitude spectral density.

    Args:
        n_samples: number of samples to generate.
        density: one-sided amplitude spectral density in ``unit/√Hz``.
        sample_rate_hz: sampling rate of the generated sequence.
        rng: optional numpy random generator for reproducibility.

    Returns:
        Array of ``n_samples`` Gaussian samples whose standard deviation
        is ``density * sqrt(fs / 2)`` so that the one-sided PSD equals
        ``density**2``.
    """
    if n_samples < 0:
        raise ConfigurationError("n_samples must be >= 0")
    if density < 0:
        raise ConfigurationError("noise density must be >= 0")
    if sample_rate_hz <= 0:
        raise ConfigurationError("sample rate must be > 0")
    if density == 0.0 or n_samples == 0:
        return np.zeros(n_samples)
    rng = rng or np.random.default_rng()
    sigma = density * np.sqrt(sample_rate_hz / 2.0)
    return rng.normal(0.0, sigma, size=n_samples)


def flicker_noise(n_samples: int, density_at_1hz: float, sample_rate_hz: float,
                  rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Generate approximate 1/f (flicker) noise.

    Uses the Voss/spectral-shaping approach: white Gaussian noise is
    shaped in the frequency domain by ``1/sqrt(f)`` so the resulting
    amplitude spectral density falls as ``1/sqrt(f)`` and equals
    ``density_at_1hz`` at 1 Hz.
    """
    if n_samples <= 0:
        return np.zeros(max(n_samples, 0))
    if density_at_1hz == 0.0:
        return np.zeros(n_samples)
    rng = rng or np.random.default_rng()
    white = rng.normal(0.0, 1.0, size=n_samples)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / sample_rate_hz)
    shaping = np.ones_like(freqs)
    nonzero = freqs > 0
    shaping[nonzero] = 1.0 / np.sqrt(freqs[nonzero])
    shaping[0] = 0.0  # remove DC
    shaped = np.fft.irfft(spectrum * shaping, n=n_samples)
    # normalise so the ASD at 1 Hz matches density_at_1hz
    scale = density_at_1hz * np.sqrt(sample_rate_hz / 2.0) / max(np.std(white), 1e-30)
    return shaped * scale


def thermal_voltage_noise_density(resistance_ohm: float,
                                  temperature_c: float = 25.0) -> float:
    """Johnson-Nyquist voltage noise density ``sqrt(4 k T R)`` in V/√Hz."""
    if resistance_ohm < 0:
        raise ConfigurationError("resistance must be >= 0")
    t_kelvin = celsius_to_kelvin(temperature_c)
    return float(np.sqrt(4.0 * BOLTZMANN * t_kelvin * resistance_ohm))


@dataclass
class NoiseSource:
    """Composite white + flicker noise source.

    Attributes:
        white_density: one-sided white-noise density in unit/√Hz.
        flicker_density_1hz: flicker (1/f) density at 1 Hz in unit/√Hz.
        seed: RNG seed (``None`` draws from entropy).
    """

    white_density: float = 0.0
    flicker_density_1hz: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def generate(self, n_samples: int, sample_rate_hz: float) -> np.ndarray:
        """Generate ``n_samples`` of composite noise."""
        total = white_noise(n_samples, self.white_density, sample_rate_hz, self._rng)
        if self.flicker_density_1hz:
            total = total + flicker_noise(
                n_samples, self.flicker_density_1hz, sample_rate_hz, self._rng)
        return total

    def sample(self, sample_rate_hz: float) -> float:
        """Draw a single white-noise sample (flicker ignored per-sample)."""
        if self.white_density == 0.0:
            return 0.0
        sigma = self.white_density * np.sqrt(sample_rate_hz / 2.0)
        return float(self._rng.normal(0.0, sigma))

    def reset(self) -> None:
        """Re-seed the generator for repeatable runs."""
        self._rng = np.random.default_rng(self.seed)


class BufferedGaussianNoise:
    """Per-sample Gaussian noise from one seeded ``numpy`` generator.

    ``numpy`` generator calls are comparatively expensive for scalar
    draws, so the per-sample reference loops (ADC, amplifiers, sensor)
    pull from a block of ``block_size`` pre-generated samples that
    :meth:`next` refills on demand, while chunked consumers draw exactly
    the samples they need with :meth:`take`.  ``Generator.normal``
    returns the same value stream whatever the call sizes, so every mix
    of the two yields the sequence of one long draw for a given seed.

    A pickle (or deep copy) carries no block: it holds the generator
    positioned at the next value the source will hand out, so a started
    platform snapshots in a few KiB and two sources at the same stream
    position pickle to the same bytes however they got there.  Code that
    draws the stream itself — the C lane kernels call NumPy's
    ``random_normal`` — gets that generator's bit generator from
    :meth:`bit_generator`.
    """

    def __init__(self, sigma: float, seed: Optional[int] = None,
                 block_size: int = 4096):
        if sigma < 0:
            raise ConfigurationError("sigma must be >= 0")
        if block_size < 1:
            raise ConfigurationError("block size must be >= 1")
        self.sigma = float(sigma)
        self._rng = np.random.default_rng(seed)
        self._block_size = int(block_size)
        self._drop_block()

    def _drop_block(self) -> None:
        self._buffer = _NO_BLOCK
        self._index = 0
        self._block_start = None     # generator state the block began at

    def next(self) -> float:
        """Return the next noise sample (0.0 when sigma is zero)."""
        if self.sigma == 0.0:
            return 0.0
        if self._index >= self._buffer.size:
            self._block_start = self._rng.bit_generator.state
            self._buffer = self._rng.normal(0.0, self.sigma, self._block_size)
            self._index = 0
        value = self._buffer[self._index]
        self._index += 1
        return float(value)

    def take(self, n: int) -> np.ndarray:
        """Return the next ``n`` samples as an array.

        Hands out what is left of a block :meth:`next` started, then
        draws the rest in one ``normal`` call — the same sequence as
        ``n`` calls to :meth:`next`, so per-sample and chunked consumers
        can be mixed freely.  With ``sigma == 0`` nothing is consumed
        and zeros are returned, matching :meth:`next`.
        """
        if n < 0:
            raise ConfigurationError("n must be >= 0")
        if self.sigma == 0.0 or n == 0:
            return np.zeros(n)
        pending = self._buffer.size - self._index
        if pending <= 0:
            return self._rng.normal(0.0, self.sigma, n)
        if n < pending:
            self._index += n
            return self._buffer[self._index - n:self._index].copy()
        head = self._buffer[self._index:]
        self._drop_block()
        return np.concatenate(
            (head, self._rng.normal(0.0, self.sigma, n - pending)))

    def _rewind(self, rng: np.random.Generator) -> None:
        """Put ``rng``, this source's generator or a copy of it, at the
        next value the source hands out while a block is pending: back at
        the block start, then past the values already handed out."""
        rng.bit_generator.state = self._block_start
        rng.normal(0.0, self.sigma, self._index)

    def bit_generator(self) -> np.random.BitGenerator:
        """The generator's bit generator, at the next value of the stream.

        For code that draws the stream itself, ``normal(0, sigma)`` at a
        time (a draw whenever ``sigma`` is not zero): a block that
        :meth:`next` left pending is folded back into the generator
        first, so the stream carries on where it stands.
        """
        if self._index < self._buffer.size:
            self._rewind(self._rng)
            self._drop_block()
        return self._rng.bit_generator

    def __getstate__(self) -> dict:
        rng = self._rng
        if self._index < self._buffer.size:
            # a block is pending: pickle a rewound copy of the live
            # generator (same bit generator and seed sequence)
            rng = copy.deepcopy(rng)
            self._rewind(rng)
        return {"sigma": self.sigma, "rng": rng,
                "block_size": self._block_size}

    def __setstate__(self, state: dict) -> None:
        self.sigma = state["sigma"]
        self._rng = state["rng"]
        self._block_size = state["block_size"]
        self._drop_block()


_NO_BLOCK = np.zeros(0)


def amplitude_spectral_density(x: np.ndarray, sample_rate_hz: float,
                               nperseg: Optional[int] = None
                               ) -> Tuple[np.ndarray, np.ndarray]:
    """One-sided amplitude spectral density via Welch's method.

    Returns:
        ``(freqs, asd)`` where ``asd`` is in ``unit/√Hz``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < 8:
        raise ConfigurationError("need at least 8 samples for an ASD estimate")
    if nperseg is None:
        nperseg = min(len(x), max(256, len(x) // 8))
    from scipy import signal as sps

    freqs, psd = sps.welch(x, fs=sample_rate_hz, nperseg=nperseg, detrend="constant")
    return freqs, np.sqrt(psd)


def band_average_density(x: np.ndarray, sample_rate_hz: float,
                         band_hz: Tuple[float, float],
                         nperseg: Optional[int] = None) -> float:
    """Average amplitude spectral density of ``x`` within a band.

    This is how the rate-noise-density figure (°/s/√Hz) is extracted
    from a zero-rate output record: estimate the ASD and average it over
    the flat in-band region.
    """
    freqs, asd = amplitude_spectral_density(x, sample_rate_hz, nperseg)
    lo, hi = band_hz
    mask = (freqs >= lo) & (freqs <= hi)
    if not np.any(mask):
        raise ConfigurationError(f"no spectral bins inside band {band_hz}")
    return float(np.mean(asd[mask]))


def rms(x: np.ndarray) -> float:
    """Root-mean-square of a record (DC included)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ConfigurationError("cannot compute RMS of an empty record")
    return float(np.sqrt(np.mean(x ** 2)))


def ac_rms(x: np.ndarray) -> float:
    """RMS of a record after removing its mean."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ConfigurationError("cannot compute RMS of an empty record")
    return float(np.std(x))
