"""Environment stimuli: temperature profiles and angular-rate trajectories.

The datasheet-style characterisation in the paper (Table 1) sweeps two
environmental inputs: the yaw rate applied to the sensor and the ambient
temperature (-40 °C to +85 °C).  Profiles are callables of time so that
the same co-simulation loop can run a rate step, a rate sweep, a
temperature ramp or any combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np

from ..common.exceptions import ConfigurationError
from ..common.units import ROOM_TEMPERATURE_C


class Profile:
    """A scalar function of time with vectorised evaluation."""

    def value(self, t: float) -> float:
        """Value of the profile at time ``t`` (seconds)."""
        raise NotImplementedError

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

    def value(self, t: float) -> float:
        return self.level

    def sample(self, t: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(t).shape, self.level, dtype=np.float64)


@dataclass
class StepProfile(Profile):
    """A step from ``before`` to ``after`` at ``step_time``."""

    before: float = 0.0
    after: float = 1.0
    step_time: float = 0.0

    def value(self, t: float) -> float:
        return self.after if t >= self.step_time else self.before

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

    def value(self, t: float) -> float:
        if t <= self.t0:
            return self.start
        if t >= self.t1:
            return self.stop
        frac = (t - self.t0) / (self.t1 - self.t0)
        return self.start + frac * (self.stop - self.start)

    def sample(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        frac = np.clip((t - self.t0) / (self.t1 - self.t0), 0.0, 1.0)
        ramp = self.start + frac * (self.stop - self.start)
        # pin the plateaus to the exact endpoint values so the vectorised
        # evaluation agrees bit-for-bit with the scalar value() branches
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

    def value(self, t: float) -> float:
        return self.offset + self.amplitude * np.sin(
            2.0 * np.pi * self.frequency_hz * t + self.phase)

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

    def value(self, t: float) -> float:
        current = self.breakpoints[0][1]
        for bp_time, bp_value in self.breakpoints:
            if t >= bp_time:
                current = bp_value
            else:
                break
        return current

    def sample(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        times = np.array([bp[0] for bp in self.breakpoints])
        values = np.array([bp[1] for bp in self.breakpoints])
        idx = np.searchsorted(times, t, side="right") - 1
        # before the first breakpoint the first value applies
        return values[np.maximum(idx, 0)]


@dataclass
class TimeShiftedProfile(Profile):
    """A profile evaluated with a fixed time offset: ``base(t + offset_s)``.

    Scenario campaigns slice one logical run into several engine calls
    (early-stop checks, fleet chunking); each slice sees time relative
    to its own start, so the remainder of a profile is exposed by
    shifting its time axis.  Constant profiles never need shifting (the
    campaign layer skips the wrapper), so replayed slices stay
    bit-identical to one continuous run for piecewise-constant stimuli.
    """

    base: Profile = field(default_factory=ConstantProfile)
    offset_s: float = 0.0

    def value(self, t: float) -> float:
        return self.base.value(t + self.offset_s)

    def sample(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        return self.base.sample(t + self.offset_s)


def shift_profile(profile: Profile, offset_s: float) -> Profile:
    """Return ``profile`` advanced by ``offset_s`` seconds.

    Constant profiles are returned unchanged and nested shifts are
    collapsed into a single offset.
    """
    if offset_s == 0.0 or isinstance(profile, ConstantProfile):
        return profile
    if isinstance(profile, TimeShiftedProfile):
        return TimeShiftedProfile(profile.base, profile.offset_s + offset_s)
    return TimeShiftedProfile(profile, offset_s)


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
        The compiled engine uses this instead of per-sample
        :meth:`Profile.value` calls; every built-in profile
        guarantees ``sample(t)[i] == value(t[i])`` bit-for-bit.
        """
        t = np.asarray(t, dtype=np.float64)
        return (np.asarray(self.rate_dps.sample(t), dtype=np.float64),
                np.asarray(self.temperature_c.sample(t), dtype=np.float64))

    def shifted(self, offset_s: float) -> "Environment":
        """This environment with its time axis advanced by ``offset_s``."""
        if offset_s < 0:
            raise ConfigurationError("time shift must be >= 0")
        return Environment(rate_dps=shift_profile(self.rate_dps, offset_s),
                           temperature_c=shift_profile(self.temperature_c,
                                                       offset_s))

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
