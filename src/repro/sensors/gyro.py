"""MEMS vibrating-ring yaw-rate gyroscope model.

The case study in the paper conditions a vibrating-ring gyro (references
[7] and [8] of the paper): drive electrodes keep the ring oscillating in
its primary mode at ~15 kHz; rotation about the sensitive axis couples
energy through the Coriolis force into the secondary mode located 45°
away; the secondary vibration amplitude (open loop) or the force needed
to null it (closed loop) is proportional to the angular rate.

The electrical interface seen by the conditioning platform is:

* two drive inputs (primary drive voltage, secondary control voltage),
  converted to modal forces by the electrode transducer gain;
* two capacitive pick-offs (primary and secondary), converted to
  voltages by the pick-off gain.

The model includes the non-idealities the conditioning chain has to deal
with: finite Q (so the amplitude must be regulated by an AGC), resonance
drift and pick-off gain drift with temperature, quadrature coupling,
zero-rate offset and mechanical (Brownian) rate noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from ..common.exceptions import ConfigurationError
from ..common.noise import BufferedGaussianNoise
from ..common.units import ROOM_TEMPERATURE_C, dps_to_rps
from .resonator import ResonatorMode


@dataclass(frozen=True)
class GyroParameters:
    """Physical and electrical parameters of the vibrating-ring gyro.

    The defaults model the SensorDynamics sensor of the case study: a
    ~15 kHz ring with a high-Q primary mode (slow amplitude envelope,
    which is what makes the 500 ms turn-on time of Table 1) and a
    lower-Q secondary mode split ~120 Hz above the primary.
    """

    #: Primary (drive) mode natural frequency [Hz].
    primary_resonance_hz: float = 15000.0
    #: Secondary (sense) mode natural frequency [Hz].
    secondary_resonance_hz: float = 15120.0
    #: Primary mode quality factor.
    primary_q: float = 4000.0
    #: Secondary mode quality factor.
    secondary_q: float = 1500.0
    #: Drive-electrode transducer gain: modal acceleration per volt [m/s^2/V].
    drive_gain_ms2_per_v: float = 2.0
    #: Control-electrode transducer gain for the secondary mode [m/s^2/V].
    control_gain_ms2_per_v: float = 2.0
    #: Capacitive pick-off gain: volts per metre of modal displacement [V/m].
    pickoff_gain_v_per_m: float = 5.0e5
    #: Angular gain (Bryan factor) of the ring structure (dimensionless).
    angular_gain: float = 0.8
    #: Mechanical (Brownian) rate-equivalent noise density [°/s/√Hz].
    rate_noise_density_dps_rthz: float = 0.05
    #: Quadrature error expressed as equivalent rate [°/s].
    quadrature_error_dps: float = 30.0
    #: Zero-rate offset expressed as equivalent rate [°/s].
    offset_rate_dps: float = 1.0
    #: Primary/secondary resonance temperature coefficient [ppm/°C].
    frequency_tc_ppm_per_c: float = -30.0
    #: Pick-off (and hence sensitivity) temperature coefficient [ppm/°C].
    pickoff_tc_ppm_per_c: float = -150.0
    #: Zero-rate offset drift with temperature [°/s per °C].
    offset_tc_dps_per_c: float = 0.02
    #: Q temperature coefficient [ppm/°C] (Q rises as temperature drops).
    q_tc_ppm_per_c: float = -2000.0
    #: RNG seed for the Brownian-noise source (None = non-deterministic).
    noise_seed: Optional[int] = 1234

    def __post_init__(self) -> None:
        if self.primary_resonance_hz <= 0 or self.secondary_resonance_hz <= 0:
            raise ConfigurationError("resonance frequencies must be > 0")
        if self.primary_q <= 0 or self.secondary_q <= 0:
            raise ConfigurationError("quality factors must be > 0")
        if self.pickoff_gain_v_per_m <= 0:
            raise ConfigurationError("pick-off gain must be > 0")
        if self.drive_gain_ms2_per_v <= 0 or self.control_gain_ms2_per_v <= 0:
            raise ConfigurationError("transducer gains must be > 0")
        if self.rate_noise_density_dps_rthz < 0:
            raise ConfigurationError("noise density must be >= 0")

    def with_part_variation(self, rng: np.random.Generator,
                            sensitivity_spread: float = 0.02,
                            frequency_spread: float = 0.005,
                            offset_spread_dps: float = 1.0) -> "GyroParameters":
        """Return a copy with random part-to-part manufacturing variation.

        Used by the Monte-Carlo characterisation that produces the
        min/typ/max columns of the datasheet table.
        """
        return replace(
            self,
            pickoff_gain_v_per_m=self.pickoff_gain_v_per_m
            * (1.0 + rng.normal(0.0, sensitivity_spread)),
            primary_resonance_hz=self.primary_resonance_hz
            * (1.0 + rng.normal(0.0, frequency_spread)),
            secondary_resonance_hz=self.secondary_resonance_hz
            * (1.0 + rng.normal(0.0, frequency_spread)),
            offset_rate_dps=self.offset_rate_dps + rng.normal(0.0, offset_spread_dps),
            noise_seed=int(rng.integers(0, 2 ** 31 - 1)),
        )


class VibratingRingGyro:
    """Time-domain model of the vibrating-ring gyro.

    The model is advanced one simulation sample at a time by
    :meth:`step`, which accepts the two electrode voltages produced by
    the platform's DACs plus the environmental inputs (true rate and
    temperature) and returns the two pick-off voltages sampled by the
    platform's ADCs.
    """

    def __init__(self, params: GyroParameters, sample_rate_hz: float):
        if sample_rate_hz <= 4.0 * params.primary_resonance_hz:
            raise ConfigurationError(
                "sample rate must be at least 4x the primary resonance "
                f"({params.primary_resonance_hz} Hz) to represent the carrier")
        self.params = params
        self.sample_rate_hz = float(sample_rate_hz)
        self._dt = 1.0 / self.sample_rate_hz
        self.primary = ResonatorMode(params.primary_resonance_hz,
                                     params.primary_q, self._dt)
        self.secondary = ResonatorMode(params.secondary_resonance_hz,
                                       params.secondary_q, self._dt)
        # Brownian noise is injected as an equivalent-rate white sequence.
        self._rate_noise_sigma = float(params.rate_noise_density_dps_rthz
                                       * np.sqrt(self.sample_rate_hz / 2.0))
        self._noise = BufferedGaussianNoise(self._rate_noise_sigma,
                                            params.noise_seed)
        self._temperature_c = ROOM_TEMPERATURE_C
        self._last_temp_applied = None
        self._apply_temperature(ROOM_TEMPERATURE_C)

    # -- temperature handling -------------------------------------------------

    @property
    def temperature_c(self) -> float:
        """Current die temperature in °C."""
        return self._temperature_c

    def _apply_temperature(self, temperature_c: float) -> None:
        """Retune resonators and gains for a new temperature."""
        if (self._last_temp_applied is not None
                and abs(temperature_c - self._last_temp_applied) < 0.05):
            self._temperature_c = temperature_c
            return
        p = self.params
        dt_c = temperature_c - ROOM_TEMPERATURE_C
        freq_scale = 1.0 + p.frequency_tc_ppm_per_c * 1e-6 * dt_c
        q_scale = max(0.1, 1.0 + p.q_tc_ppm_per_c * 1e-6 * dt_c)
        self.primary.retune(p.primary_resonance_hz * freq_scale,
                            p.primary_q * q_scale)
        self.secondary.retune(p.secondary_resonance_hz * freq_scale,
                              p.secondary_q * q_scale)
        self._pickoff_gain = (p.pickoff_gain_v_per_m
                              * (1.0 + p.pickoff_tc_ppm_per_c * 1e-6 * dt_c))
        self._offset_rate_dps = p.offset_rate_dps + p.offset_tc_dps_per_c * dt_c
        self._temperature_c = temperature_c
        self._last_temp_applied = temperature_c

    # -- simulation -------------------------------------------------------------

    def _next_noise(self) -> float:
        """Draw the next Brownian-noise sample from a pre-generated block."""
        return self._noise.next()

    def reset(self) -> None:
        """Return the mechanical element to rest and re-seed the noise."""
        self.primary.reset()
        self.secondary.reset()
        self._noise = BufferedGaussianNoise(self._rate_noise_sigma,
                                            self.params.noise_seed)
        self._last_temp_applied = None
        self._apply_temperature(ROOM_TEMPERATURE_C)

    def step(self, drive_voltage: float, control_voltage: float,
             rate_dps: float, temperature_c: float = ROOM_TEMPERATURE_C
             ) -> Tuple[float, float]:
        """Advance the sensor by one sample.

        Args:
            drive_voltage: primary drive electrode voltage [V].
            control_voltage: secondary control electrode voltage [V]
                (force-rebalance input; 0 for open-loop operation).
            rate_dps: true yaw rate applied to the package [°/s].
            temperature_c: die temperature [°C].

        Returns:
            ``(primary_pickoff_v, secondary_pickoff_v)`` — the two
            voltages presented to the analog front-end.
        """
        p = self.params
        self._apply_temperature(temperature_c)

        # primary (drive) mode
        drive_accel = p.drive_gain_ms2_per_v * drive_voltage
        x = self.primary.step(drive_accel)
        x_vel = self.primary.velocity

        # Coriolis coupling into the secondary mode.  The offset,
        # temperature drift, quadrature error and Brownian noise are all
        # expressed as equivalent rates so they propagate through the
        # same transfer function as the true rate.
        noise_dps = self._next_noise() if self._rate_noise_sigma else 0.0
        effective_rate_rps = dps_to_rps(rate_dps + self._offset_rate_dps + noise_dps)
        coriolis_accel = -2.0 * p.angular_gain * effective_rate_rps * x_vel
        # quadrature error couples primary *displacement* into the secondary
        quad_accel = (dps_to_rps(p.quadrature_error_dps) * 2.0 * p.angular_gain
                      * x * 2.0 * np.pi * self.primary.resonance_hz)
        control_accel = p.control_gain_ms2_per_v * control_voltage
        y = self.secondary.step(coriolis_accel + quad_accel + control_accel)

        primary_pickoff = self._pickoff_gain * x
        secondary_pickoff = self._pickoff_gain * y
        return primary_pickoff, secondary_pickoff

    # -- analysis helpers ---------------------------------------------------

    def mechanical_sensitivity_v_per_dps(self, drive_displacement_m: float) -> float:
        """Small-signal secondary pick-off voltage per °/s of rate.

        Evaluates the steady-state secondary response to the Coriolis
        acceleration produced by a 1 °/s rate with the primary vibrating
        at ``drive_displacement_m`` amplitude, at the current temperature.
        """
        p = self.params
        x_vel_amp = (2.0 * np.pi * self.primary.resonance_hz * drive_displacement_m)
        coriolis_amp = 2.0 * p.angular_gain * dps_to_rps(1.0) * x_vel_amp
        y_amp = self.secondary.steady_state_amplitude(
            coriolis_amp, drive_freq_hz=self.primary.resonance_hz)
        return self._pickoff_gain * y_amp

    def turn_on_time_estimate_s(self) -> float:
        """Rough turn-on estimate: ~5 primary envelope time constants."""
        return 5.0 * self.primary.envelope_time_constant()
