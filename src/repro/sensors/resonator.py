"""Second-order resonator mode with exact zero-order-hold discretisation.

A MEMS vibrating-ring gyro mode is a lightly damped harmonic oscillator

    x'' + (w0/Q) x' + w0^2 x = a(t)

driven by an acceleration input ``a`` (drive force, Coriolis force or
control/rebalance force, all normalised by the modal mass).  The mode is
simulated sample by sample with the *exact* discrete-time update for a
zero-order-hold input, so the model stays accurate and unconditionally
stable even when the simulation rate is only a handful of samples per
resonance cycle (the co-simulation typically runs at 8–32 samples per
15 kHz cycle).

The propagator comes from ``scipy.linalg.expm``, which is slow and wakes
OpenBLAS's thread pool, so :func:`propagator` memoises it per process:
every mode, on either engine, that retunes to an ``(f, Q, dt)`` already
seen reads the same six floats instead.  Delete the memo once the
propagator is computed in closed form.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np
from scipy.linalg import expm

from ..common.exceptions import ConfigurationError

#: Distinct ``(f, Q, dt)`` propagators the memo keeps: enough for every
#: 0.05 °C retune of both modes over a 25 → 85 °C ramp (~2,400).
PROPAGATOR_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=PROPAGATOR_MEMO_SIZE, typed=True)
def propagator(resonance_hz: float, quality_factor: float,
               dt: float) -> Tuple[float, ...]:
    """A mode's exact ZOH update ``(a11, a12, a21, a22, b1, b2)``.

    Memoised on the arguments and their types (a ``float32`` resonance
    computes in another precision than an equal ``float``), so a hit
    returns the bits a fresh computation would.
    """
    w0 = 2.0 * np.pi * resonance_hz
    a_matrix = np.array([[0.0, 1.0],
                         [-w0 * w0, -w0 / quality_factor]])
    b_vector = np.array([[0.0], [1.0]])
    ad = expm(a_matrix * dt)
    # ZOH input matrix: A^-1 (Ad - I) B  (A is invertible since w0 > 0)
    bd = np.linalg.solve(a_matrix, (ad - np.eye(2)) @ b_vector)
    # plain floats for a fast inner loop
    return (float(ad[0, 0]), float(ad[0, 1]), float(ad[1, 0]),
            float(ad[1, 1]), float(bd[0, 0]), float(bd[1, 0]))


class ResonatorMode:
    """One vibrational mode of the sensing element.

    Attributes:
        resonance_hz: natural frequency of the mode.
        quality_factor: mechanical Q.
    """

    def __init__(self, resonance_hz: float, quality_factor: float, dt: float):
        if resonance_hz <= 0:
            raise ConfigurationError("resonance frequency must be > 0")
        if quality_factor <= 0:
            raise ConfigurationError("quality factor must be > 0")
        if dt <= 0:
            raise ConfigurationError("sample period must be > 0")
        self._dt = dt
        self._displacement = 0.0
        self._velocity = 0.0
        self._resonance_hz = resonance_hz
        self._quality_factor = quality_factor
        self._recompute()

    # -- configuration ------------------------------------------------------

    @property
    def resonance_hz(self) -> float:
        """Current natural frequency in hertz."""
        return self._resonance_hz

    @property
    def quality_factor(self) -> float:
        """Current mechanical quality factor."""
        return self._quality_factor

    @property
    def dt(self) -> float:
        """Simulation sample period in seconds."""
        return self._dt

    def retune(self, resonance_hz: float = None, quality_factor: float = None) -> None:
        """Change the resonance and/or Q (e.g. due to temperature drift).

        The discrete-time propagator is recomputed only when a parameter
        actually changes, so calling this every sample with an unchanged
        temperature costs almost nothing.
        """
        new_f = self._resonance_hz if resonance_hz is None else resonance_hz
        new_q = self._quality_factor if quality_factor is None else quality_factor
        if new_f <= 0 or new_q <= 0:
            raise ConfigurationError("resonance and Q must remain > 0")
        if new_f == self._resonance_hz and new_q == self._quality_factor:
            return
        self._resonance_hz = new_f
        self._quality_factor = new_q
        self._recompute()

    def _recompute(self) -> None:
        (self._a11, self._a12, self._a21, self._a22, self._b1,
         self._b2) = propagator(self._resonance_hz, self._quality_factor,
                                self._dt)

    # -- state --------------------------------------------------------------

    @property
    def displacement(self) -> float:
        """Current modal displacement [m]."""
        return self._displacement

    @property
    def velocity(self) -> float:
        """Current modal velocity [m/s]."""
        return self._velocity

    def reset(self) -> None:
        """Return the mode to rest."""
        self._displacement = 0.0
        self._velocity = 0.0

    def step(self, acceleration: float) -> float:
        """Advance one sample with a constant acceleration input.

        Args:
            acceleration: modal force divided by modal mass [m/s^2], held
                constant over the sample (zero-order hold).

        Returns:
            The new modal displacement [m].
        """
        x, v = self._displacement, self._velocity
        self._displacement = self._a11 * x + self._a12 * v + self._b1 * acceleration
        self._velocity = self._a21 * x + self._a22 * v + self._b2 * acceleration
        return self._displacement

    # -- analysis helpers ----------------------------------------------------

    def steady_state_amplitude(self, drive_amplitude: float,
                               drive_freq_hz: float = None) -> float:
        """Steady-state displacement amplitude for a sinusoidal drive.

        Args:
            drive_amplitude: acceleration amplitude [m/s^2].
            drive_freq_hz: drive frequency; defaults to the resonance.
        """
        w0 = 2.0 * np.pi * self._resonance_hz
        w = w0 if drive_freq_hz is None else 2.0 * np.pi * drive_freq_hz
        denom = np.sqrt((w0 ** 2 - w ** 2) ** 2 + (w0 * w / self._quality_factor) ** 2)
        return float(drive_amplitude / denom)

    def envelope_time_constant(self) -> float:
        """Exponential amplitude build-up/decay time constant ``2Q/w0`` [s]."""
        return 2.0 * self._quality_factor / (2.0 * np.pi * self._resonance_hz)

    def half_power_bandwidth_hz(self) -> float:
        """-3 dB mechanical bandwidth ``f0/Q`` of the mode."""
        return self._resonance_hz / self._quality_factor
