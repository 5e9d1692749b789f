"""Environment stimuli: temperature profiles and angular-rate trajectories.

The datasheet-style characterisation in the paper (Table 1) sweeps two
environmental inputs: the yaw rate applied to the sensor and the ambient
temperature (-40 °C to +85 °C).  Profiles are callables of time so that
the same co-simulation loop can run a rate step, a rate sweep, a
temperature ramp or any combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from ..common.exceptions import ConfigurationError
from ..common.units import ROOM_TEMPERATURE_C


class Profile:
    """A scalar function of time with vectorised evaluation.

    A profile implements :meth:`sample`, the one evaluator both engines
    call.  A subclass that implements only :meth:`value` runs too, one
    call per time stamp.
    """

    def value(self, t: float) -> float:
        """Value of the profile at time ``t`` (seconds)."""
        if type(self).sample is Profile.sample:
            raise NotImplementedError(
                f"{type(self).__name__} implements neither sample nor value")
        return float(self.sample(np.array([t], dtype=np.float64))[0])

    def sample(self, t: np.ndarray) -> np.ndarray:
        """Vectorised evaluation over an array of time stamps."""
        t = np.asarray(t, dtype=np.float64)
        return np.array([self.value(float(ti)) for ti in t])

    def __call__(self, t: float) -> float:
        return self.value(t)


@dataclass
class ConstantProfile(Profile):
    """A constant value for all time."""

    level: float = 0.0

    def sample(self, t: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(t).shape, self.level, dtype=np.float64)


@dataclass
class StepProfile(Profile):
    """A step from ``before`` to ``after`` at ``step_time``."""

    before: float = 0.0
    after: float = 1.0
    step_time: float = 0.0

    def sample(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        return np.where(t >= self.step_time, self.after, self.before)


@dataclass
class RampProfile(Profile):
    """Linear ramp from ``start`` to ``stop`` between ``t0`` and ``t1``."""

    start: float = 0.0
    stop: float = 1.0
    t0: float = 0.0
    t1: float = 1.0

    def __post_init__(self) -> None:
        if self.t1 <= self.t0:
            raise ConfigurationError("ramp end time must be after start time")

    def sample(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        frac = np.clip((t - self.t0) / (self.t1 - self.t0), 0.0, 1.0)
        ramp = self.start + frac * (self.stop - self.start)
        # a plateau is the endpoint itself: start + 1.0 * (stop - start)
        # need not round to stop
        return np.where(t <= self.t0, self.start,
                        np.where(t >= self.t1, self.stop, ramp))


@dataclass
class SineProfile(Profile):
    """Sinusoidal stimulus — used for bandwidth measurements.

    ``value(t) = offset + amplitude * sin(2*pi*frequency_hz*t + phase)``
    """

    amplitude: float = 1.0
    frequency_hz: float = 1.0
    offset: float = 0.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.frequency_hz < 0:
            raise ConfigurationError("frequency must be >= 0")

    def sample(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        return self.offset + self.amplitude * np.sin(
            2.0 * np.pi * self.frequency_hz * t + self.phase)


@dataclass
class PiecewiseProfile(Profile):
    """Piecewise-constant profile defined by ``(time, value)`` breakpoints.

    The value holds from each breakpoint until the next one.  Before the
    first breakpoint the first value applies.
    """

    breakpoints: Sequence[Tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.breakpoints:
            raise ConfigurationError("piecewise profile needs at least one breakpoint")
        times = [bp[0] for bp in self.breakpoints]
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ConfigurationError("breakpoint times must be strictly increasing")

    def sample(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        times = np.array([bp[0] for bp in self.breakpoints])
        values = np.array([bp[1] for bp in self.breakpoints])
        idx = np.searchsorted(times, t, side="right") - 1
        # before the first breakpoint the first value applies
        return values[np.maximum(idx, 0)]


@dataclass
class Environment:
    """Combined angular-rate and temperature stimulus.

    Attributes:
        rate_dps: yaw-rate profile in degrees per second.
        temperature_c: ambient-temperature profile in degrees Celsius.
    """

    rate_dps: Profile = field(default_factory=ConstantProfile)
    temperature_c: Profile = field(
        default_factory=lambda: ConstantProfile(ROOM_TEMPERATURE_C))

    def at(self, t: float) -> Tuple[float, float]:
        """Return ``(rate_dps, temperature_c)`` at time ``t``."""
        return self.rate_dps.value(t), self.temperature_c.value(t)

    def sample(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised evaluation: ``(rate_dps, temperature_c)`` arrays.

        Evaluates both profiles over an array of time stamps in one call.
        Both engines read their stimulus only through this, a chunk at a
        time, at a run's absolute sample times ``(first_sample + j) *
        dt``: a campaign lane that pauses at stop checks reads the times
        one continuous run reads, so its chunking is invisible.
        """
        t = np.asarray(t, dtype=np.float64)
        return (np.asarray(self.rate_dps.sample(t), dtype=np.float64),
                np.asarray(self.temperature_c.sample(t), dtype=np.float64))

    @classmethod
    def still(cls, temperature_c: float = ROOM_TEMPERATURE_C) -> "Environment":
        """Sensor at rest at a fixed temperature (zero-rate measurement)."""
        return cls(rate_dps=ConstantProfile(0.0),
                   temperature_c=ConstantProfile(temperature_c))

    @classmethod
    def constant_rate(cls, rate_dps: float,
                      temperature_c: float = ROOM_TEMPERATURE_C) -> "Environment":
        """Constant applied yaw rate at a fixed temperature."""
        return cls(rate_dps=ConstantProfile(rate_dps),
                   temperature_c=ConstantProfile(temperature_c))

    @classmethod
    def rate_step(cls, rate_dps: float, step_time: float,
                  temperature_c: float = ROOM_TEMPERATURE_C) -> "Environment":
        """Yaw-rate step at ``step_time`` — used for response-time tests."""
        return cls(rate_dps=StepProfile(0.0, rate_dps, step_time),
                   temperature_c=ConstantProfile(temperature_c))

    @classmethod
    def sinusoidal_rate(cls, amplitude_dps: float, frequency_hz: float,
                        temperature_c: float = ROOM_TEMPERATURE_C) -> "Environment":
        """Sinusoidal yaw rate — used for bandwidth measurement."""
        return cls(rate_dps=SineProfile(amplitude_dps, frequency_hz),
                   temperature_c=ConstantProfile(temperature_c))
