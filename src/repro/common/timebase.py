"""Simulation time base shared by the analog, digital and software models.

The mixed-signal platform is simulated as a discrete-time system at a
single "analog" oversampling rate; the digital section runs at integer
sub-multiples obtained by decimation.  :class:`Timebase` keeps the rates
and conversions in one place so every block agrees on what a "sample"
means, exactly as the paper's MATLAB model fixes a common simulation
step before partitioning.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError


def check_duration(value, what: str = "duration") -> float:
    """Validate a simulated duration in seconds and return it as a float.

    Any real number is accepted, NumPy scalars included, and comes back
    as the equal Python float, so it serialises, digests and keys a
    store exactly like that float.

    Raises:
        ConfigurationError: ``value`` is not a real number, or is not
            finite and > 0.
    """
    if not isinstance(value, numbers.Real):
        raise ConfigurationError(
            f"{what} must be a real number of seconds, got {value!r}")
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ConfigurationError(f"{what} must be finite and > 0, "
                                 f"got {value!r}")
    return value


@dataclass(frozen=True)
class Timebase:
    """A fixed sampling rate plus helpers to convert between time and samples.

    Attributes:
        sample_rate_hz: simulation sampling frequency in hertz.
    """

    sample_rate_hz: float

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise ConfigurationError(
                f"sample rate must be > 0, got {self.sample_rate_hz!r}")

    @property
    def dt(self) -> float:
        """Sample period in seconds."""
        return 1.0 / self.sample_rate_hz

    @property
    def nyquist_hz(self) -> float:
        """Nyquist frequency in hertz."""
        return self.sample_rate_hz / 2.0

    def n_samples(self, duration_s: float) -> int:
        """Number of samples spanning ``duration_s`` seconds (rounded)."""
        if duration_s < 0:
            raise ConfigurationError("duration must be >= 0")
        return int(round(duration_s * self.sample_rate_hz))

    def duration(self, n_samples: int) -> float:
        """Duration in seconds of ``n_samples`` samples."""
        return n_samples / self.sample_rate_hz

    def time_vector(self, n_samples: int, start_s: float = 0.0) -> np.ndarray:
        """Return the time stamps of ``n_samples`` consecutive samples."""
        return start_s + np.arange(n_samples) / self.sample_rate_hz

    def decimated(self, factor: int) -> "Timebase":
        """Timebase after decimation by an integer ``factor``."""
        if factor < 1 or int(factor) != factor:
            raise ConfigurationError(f"decimation factor must be a positive integer, got {factor!r}")
        return Timebase(self.sample_rate_hz / factor)

    def normalized_frequency(self, freq_hz: float) -> float:
        """Frequency as a fraction of the sample rate (cycles/sample)."""
        return freq_hz / self.sample_rate_hz

    def phase_increment(self, freq_hz: float) -> float:
        """Per-sample phase increment in radians for a tone at ``freq_hz``."""
        return 2.0 * np.pi * freq_hz / self.sample_rate_hz


class SimulationClock:
    """Mutable sample counter attached to a :class:`Timebase`.

    Used by the co-simulation engine to advance all sections coherently
    and to schedule events (e.g. a rate step at ``t = 50 ms``).
    """

    def __init__(self, timebase: Timebase):
        self._timebase = timebase
        self._sample_index = 0

    @property
    def timebase(self) -> Timebase:
        """The underlying time base."""
        return self._timebase

    @property
    def sample_index(self) -> int:
        """Number of samples elapsed since construction or :meth:`reset`."""
        return self._sample_index

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._sample_index * self._timebase.dt

    def tick(self, n: int = 1) -> int:
        """Advance the clock by ``n`` samples and return the new index."""
        if n < 0:
            raise ConfigurationError("cannot tick a negative number of samples")
        self._sample_index += n
        return self._sample_index

    def reset(self) -> None:
        """Rewind the clock to time zero."""
        self._sample_index = 0

    def __repr__(self) -> str:
        return (f"SimulationClock(t={self.now:.6f}s, "
                f"fs={self._timebase.sample_rate_hz:.0f}Hz)")
