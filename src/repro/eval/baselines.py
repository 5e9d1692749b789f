"""Behavioural models of the commercial comparator devices (Tables 2–3).

The paper compares its implementation against the Analog Devices
ADXRS300 and the Murata Gyrostar using their datasheet numbers.  We
cannot run the real parts, so each baseline is a behavioural device
model parameterised from its datasheet: an analog output around a null
voltage with the published sensitivity, noise density, bandwidth,
temperature drift and turn-on behaviour.  The models are then measured
with the same characterisation harness, so the comparison report and the
"who wins" conclusions are produced from measured-on-model data rather
than transcribed numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..common.analysis import linear_fit, nonlinearity_percent_fs
from ..common.exceptions import ConfigurationError
from ..common.units import ROOM_TEMPERATURE_C
from ..scenarios.library import (
    noise_density_from_record,
    noise_floor_scenario,
    rate_table_scenarios,
    tail_mean,
)
from ..scenarios.scenario import Scenario
from ..sensors.environment import ConstantProfile
from .metrics import MeasuredPerformance


@dataclass(frozen=True)
class BaselineGyroSpec:
    """Datasheet-derived parameters of a baseline (commercial) gyro.

    Attributes:
        name: device name.
        full_scale_dps: rate full scale.
        sensitivity_v_per_dps: nominal analog sensitivity.
        null_v: nominal zero-rate output.
        supply_v: supply voltage (for output clipping).
        nonlinearity_fraction: quadratic bow as a fraction of full scale.
        noise_density_dps_rthz: rate-noise density.
        bandwidth_hz: -3 dB output bandwidth.
        turn_on_time_s: datasheet turn-on time.
        sensitivity_tc_ppm_per_c: sensitivity drift.
        null_tc_v_per_c: null drift.
        operating_temp_c: operating temperature range.
    """

    name: str
    full_scale_dps: float
    sensitivity_v_per_dps: float
    null_v: float
    supply_v: float = 5.0
    nonlinearity_fraction: float = 0.001
    noise_density_dps_rthz: float = 0.1
    bandwidth_hz: float = 40.0
    turn_on_time_s: float = 0.035
    sensitivity_tc_ppm_per_c: float = 600.0
    null_tc_v_per_c: float = 1.0e-3
    operating_temp_c: Tuple[float, float] = (-40.0, 85.0)

    def __post_init__(self) -> None:
        if self.full_scale_dps <= 0 or self.sensitivity_v_per_dps == 0:
            raise ConfigurationError("invalid baseline specification")
        if self.bandwidth_hz <= 0:
            raise ConfigurationError("bandwidth must be > 0")


def adxrs300_spec() -> BaselineGyroSpec:
    """Analog Devices ADXRS300 (paper Table 2)."""
    return BaselineGyroSpec(
        name="Analog Devices ADXRS300 (model)",
        full_scale_dps=300.0,
        sensitivity_v_per_dps=0.005,
        null_v=2.50,
        nonlinearity_fraction=0.001,
        noise_density_dps_rthz=0.10,
        bandwidth_hz=40.0,
        turn_on_time_s=0.035,
        sensitivity_tc_ppm_per_c=700.0,
        null_tc_v_per_c=1.5e-3,
        operating_temp_c=(-40.0, 85.0))


def murata_gyrostar_spec() -> BaselineGyroSpec:
    """Murata Gyrostar ENV-05 series (paper Table 3)."""
    return BaselineGyroSpec(
        name="Murata Gyrostar (model)",
        full_scale_dps=300.0,
        sensitivity_v_per_dps=0.00067,
        null_v=1.35,
        nonlinearity_fraction=0.005,
        noise_density_dps_rthz=0.45,
        bandwidth_hz=50.0,
        turn_on_time_s=0.2,
        sensitivity_tc_ppm_per_c=5000.0,
        null_tc_v_per_c=3.0e-3,
        operating_temp_c=(-5.0, 75.0))


class BaselineGyroDevice:
    """Sampled behavioural model of a commercial analog-output gyro."""

    def __init__(self, spec: BaselineGyroSpec, sample_rate_hz: float = 2000.0,
                 seed: Optional[int] = 7):
        if sample_rate_hz <= 2.0 * spec.bandwidth_hz:
            raise ConfigurationError("sample rate must exceed twice the bandwidth")
        self.spec = spec
        self.sample_rate_hz = float(sample_rate_hz)
        self._rng = np.random.default_rng(seed)
        self._alpha = 1.0 - np.exp(-2.0 * np.pi * spec.bandwidth_hz / sample_rate_hz)
        self._state_v = spec.null_v

    def _sensitivity(self, temperature_c: float) -> float:
        dt_c = temperature_c - ROOM_TEMPERATURE_C
        return self.spec.sensitivity_v_per_dps * (
            1.0 + self.spec.sensitivity_tc_ppm_per_c * 1e-6 * dt_c)

    def _null(self, temperature_c: float) -> float:
        dt_c = temperature_c - ROOM_TEMPERATURE_C
        return self.spec.null_v + self.spec.null_tc_v_per_c * dt_c

    def ideal_output(self, rate_dps: float,
                     temperature_c: float = ROOM_TEMPERATURE_C) -> float:
        """Noiseless, settled output voltage for a constant rate."""
        spec = self.spec
        normalized = rate_dps / spec.full_scale_dps
        bowed = rate_dps + spec.nonlinearity_fraction * normalized * abs(normalized) \
            * spec.full_scale_dps
        out = self._null(temperature_c) + self._sensitivity(temperature_c) * bowed
        return float(np.clip(out, 0.0, spec.supply_v))

    def simulate(self, rate_dps: float, duration_s: float,
                 temperature_c: float = ROOM_TEMPERATURE_C) -> np.ndarray:
        """Simulate the sampled output for a constant applied rate.

        The single-pole output filter is applied as one vectorised
        ``lfilter`` pass (``y[i] = alpha*u[i] + (1-alpha)*y[i-1]``) with
        the held output as initial condition, instead of a per-sample
        Python loop.
        """
        n = int(duration_s * self.sample_rate_hz)
        if n == 0:
            return np.zeros(0)
        noise_sigma = (self.spec.noise_density_dps_rthz
                       * self._sensitivity(temperature_c)
                       * np.sqrt(self.sample_rate_hz / 2.0))
        target = self.ideal_output(rate_dps, temperature_c)
        noise = self._rng.normal(0.0, noise_sigma, n) if noise_sigma else np.zeros(n)
        beta = 1.0 - self._alpha
        from scipy import signal as sps

        out, _ = sps.lfilter([self._alpha], [1.0, -beta], target + noise,
                             zi=np.array([beta * self._state_v]))
        self._state_v = float(out[-1])
        return np.clip(out, 0.0, self.spec.supply_v)

    def reset(self) -> None:
        """Return the output filter to the null state."""
        self._state_v = self.spec.null_v


def _constant_level(profile, what: str) -> float:
    """Read the constant level a baseline scenario applies."""
    if not isinstance(profile, ConstantProfile):
        raise ConfigurationError(
            f"baseline devices only accept constant {what} profiles")
    return float(profile.level)


def run_baseline_scenario(device: BaselineGyroDevice,
                          scenario: Scenario) -> np.ndarray:
    """Replay one library scenario on a behavioural baseline device.

    The baselines have no digital chain to extract platform metrics
    from, but they honour the same stimulus description: the scenario's
    constant rate and temperature, its duration and its power-cycle
    flag.  Returns the sampled output-voltage record.
    """
    rate = _constant_level(scenario.environment.rate_dps, "rate")
    temperature = _constant_level(scenario.environment.temperature_c,
                                  "temperature")
    if scenario.reset:
        device.reset()
    return device.simulate(rate, scenario.duration_s, temperature)


def characterize_baseline(device: BaselineGyroDevice,
                          rate_points_dps=( -300.0, -150.0, 0.0, 150.0, 300.0),
                          noise_duration_s: float = 4.0,
                          noise_band_hz: Tuple[float, float] = (2.0, 20.0),
                          settle_s: float = 0.5) -> MeasuredPerformance:
    """Measure a baseline device with the same metrics as the platform.

    The stimulus plan is the shared scenario library — the same
    rate-table and noise-floor campaign definitions
    :class:`~repro.eval.metrics.GyroCharacterization` runs on the
    platform — replayed on the behavioural device model.
    """
    spec = device.spec
    rates = np.asarray(rate_points_dps, dtype=np.float64)
    settle_fraction = 0.5
    sweep = rate_table_scenarios(rate_points_dps, settle_s=settle_s,
                                 settle_fraction=settle_fraction, reset=True)
    outputs = np.array([tail_mean(run_baseline_scenario(device, scenario),
                                  settle_fraction)
                        for scenario in sweep])
    fit = linear_fit(rates, outputs)
    nonlinearity = nonlinearity_percent_fs(
        rates, outputs, full_scale_output=abs(fit.slope) * 2.0 * spec.full_scale_dps)

    noise_scenario = noise_floor_scenario(duration_s=noise_duration_s,
                                          band_hz=noise_band_hz, reset=True)
    zero_record = run_baseline_scenario(device, noise_scenario)
    noise_v = noise_density_from_record(zero_record, device.sample_rate_hz,
                                        noise_band_hz)
    noise_dps = noise_v / abs(spec.sensitivity_v_per_dps)

    # over-temperature sensitivity / null from the drift model
    temps = spec.operating_temp_c
    sens_temp = [1000.0 * abs(device._sensitivity(t)) for t in
                 (temps[0], ROOM_TEMPERATURE_C, temps[1])]
    null_temp = [device._null(t) for t in (temps[0], ROOM_TEMPERATURE_C, temps[1])]

    return MeasuredPerformance(
        device=spec.name,
        dynamic_range_dps=spec.full_scale_dps,
        sensitivity_mv_per_dps=1000.0 * abs(fit.slope),
        sensitivity_over_temp_mv=(min(sens_temp), max(sens_temp)),
        nonlinearity_pct_fs=nonlinearity,
        null_v=fit.offset,
        null_over_temp_v=(min(null_temp), max(null_temp)),
        turn_on_time_ms=1000.0 * spec.turn_on_time_s,
        noise_density_dps_rthz=noise_dps,
        bandwidth_hz=spec.bandwidth_hz,
        operating_temp_c=spec.operating_temp_c,
    )
