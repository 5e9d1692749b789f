"""Datasheet-style characterisation harness for the gyro platform.

This module measures, on the simulated platform, exactly the parameters
the paper reports in Table 1: sensitivity (initial and over
temperature), nonlinearity, null voltage (initial and over temperature),
turn-on time, rate-noise density and 3 dB bandwidth.  The same
:class:`MeasuredPerformance` container is produced for the baseline
devices so the comparison report can line everything up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..common.analysis import linear_fit, nonlinearity_percent_fs, three_db_bandwidth
from ..common.exceptions import ConfigurationError
from ..common.units import ROOM_TEMPERATURE_C
from ..platform.gyro_platform import GyroPlatform
from ..scenarios.campaign import Campaign
from ..scenarios.library import (
    bandwidth_probe_scenario,
    noise_floor_scenario,
    rate_table_scenarios,
)
from .datasheet import (
    DatasheetEntry,
    DeviceDatasheet,
    P_BANDWIDTH,
    P_DYNAMIC_RANGE,
    P_NOISE_DENSITY,
    P_NONLINEARITY,
    P_NULL_INITIAL,
    P_NULL_OVER_TEMP,
    P_OPERATING_TEMP_MAX,
    P_OPERATING_TEMP_MIN,
    P_SENS_INITIAL,
    P_SENS_OVER_TEMP,
    P_TURN_ON_TIME,
)


@dataclass
class MeasuredPerformance:
    """Datasheet-style figures measured on one device.

    All values use the same units as the paper's tables (mV/°/s, % of
    full scale, volts, milliseconds, °/s/√Hz, hertz, °C).
    """

    device: str
    dynamic_range_dps: float
    sensitivity_mv_per_dps: float
    sensitivity_over_temp_mv: Tuple[float, float]
    nonlinearity_pct_fs: float
    null_v: float
    null_over_temp_v: Tuple[float, float]
    turn_on_time_ms: Optional[float]
    noise_density_dps_rthz: Optional[float]
    bandwidth_hz: Optional[float]
    operating_temp_c: Tuple[float, float] = (-40.0, 85.0)
    details: Dict[str, float] = field(default_factory=dict)

    def to_datasheet(self) -> DeviceDatasheet:
        """Convert to the min/typ/max datasheet format of the paper."""
        sens_lo, sens_hi = self.sensitivity_over_temp_mv
        null_lo, null_hi = self.null_over_temp_v
        sheet = DeviceDatasheet(self.device, [
            DatasheetEntry(P_DYNAMIC_RANGE, "deg/s", maximum=self.dynamic_range_dps),
            DatasheetEntry(P_SENS_INITIAL, "mV/deg/s",
                           typical=self.sensitivity_mv_per_dps),
            DatasheetEntry(P_SENS_OVER_TEMP, "mV/deg/s",
                           minimum=min(sens_lo, sens_hi),
                           maximum=max(sens_lo, sens_hi)),
            DatasheetEntry(P_NONLINEARITY, "% of FS", typical=self.nonlinearity_pct_fs),
            DatasheetEntry(P_NULL_INITIAL, "V", typical=self.null_v),
            DatasheetEntry(P_NULL_OVER_TEMP, "V",
                           minimum=min(null_lo, null_hi),
                           maximum=max(null_lo, null_hi)),
            DatasheetEntry(P_TURN_ON_TIME, "ms", maximum=self.turn_on_time_ms),
            DatasheetEntry(P_NOISE_DENSITY, "deg/s/rtHz",
                           typical=self.noise_density_dps_rthz),
            DatasheetEntry(P_BANDWIDTH, "Hz", typical=self.bandwidth_hz),
            DatasheetEntry(P_OPERATING_TEMP_MIN, "degC",
                           typical=self.operating_temp_c[0]),
            DatasheetEntry(P_OPERATING_TEMP_MAX, "degC",
                           typical=self.operating_temp_c[1]),
        ])
        return sheet


@dataclass
class CharacterizationConfig:
    """Durations and sweep points of the characterisation runs.

    The defaults are sized for the benchmark harness; the unit tests use
    shorter versions.
    """

    rate_points_dps: Sequence[float] = (-300.0, -200.0, -100.0, -50.0, 0.0,
                                        50.0, 100.0, 200.0, 300.0)
    settle_s: float = 0.2
    noise_duration_s: float = 1.5
    noise_band_hz: Tuple[float, float] = (2.0, 20.0)
    bandwidth_probe_hz: Sequence[float] = (5.0, 20.0, 40.0, 60.0, 80.0)
    bandwidth_amplitude_dps: float = 50.0
    bandwidth_cycles: float = 8.0
    temperatures_c: Sequence[float] = (-40.0, 85.0)
    full_scale_dps: float = 300.0

    def __post_init__(self) -> None:
        if len(self.rate_points_dps) < 3:
            raise ConfigurationError("need at least three rate points")
        if self.settle_s <= 0 or self.noise_duration_s <= 0:
            raise ConfigurationError("durations must be > 0")


class GyroCharacterization:
    """Characterises a (calibrated) :class:`GyroPlatform` like a datasheet.

    Every measurement is a campaign over the shared scenario library
    (``repro.scenarios.library``) — the same scenario definitions the
    baseline-device comparison replays — so the platform and the
    commercial parts are characterised by the identical procedure.

    Args:
        engine: campaign engine for the multi-scenario sweeps (rate
            table, bandwidth probes).  Defaults to the platform's
            configured engine; every engine gives bit-identical results.
        executor: campaign executor for those sweeps (``"local"``
            in-process, ``"sharded"`` across worker processes);
            bit-identical datasheets either way.
        workers: worker-process count for the sharded executor.
        store: a :class:`repro.store.ResultStore` backing the sweep
            campaigns — a repeated characterisation of an unchanged
            platform serves every rate-table point and bandwidth probe
            from the store with zero fleet simulation, and only changed
            design points re-simulate.
    """

    def __init__(self, platform: GyroPlatform,
                 config: Optional[CharacterizationConfig] = None,
                 engine: Optional[str] = None,
                 executor: Optional[str] = None,
                 workers: Optional[int] = None,
                 store=None):
        self.platform = platform
        self.config = config or CharacterizationConfig()
        self.engine = engine
        self.executor = executor
        self.workers = workers
        self.store = store

    # -- individual measurements -------------------------------------------------

    def measure_rate_response(self, temperature_c: float = ROOM_TEMPERATURE_C
                              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sweep the rate table and collect the settled analog outputs.

        The sweep is one campaign of settled-output scenarios branching
        from the platform's current state — one fleet lane per
        rate-table point.

        Returns:
            ``(rates, output_volts, output_dps)`` arrays.
        """
        cfg = self.config
        rates = np.asarray(cfg.rate_points_dps, dtype=np.float64)
        sweep = Campaign(rate_table_scenarios(cfg.rate_points_dps,
                                              temperature_c, cfg.settle_s),
                         name="rate-table")
        result = sweep.run(self.platform, engine=self.engine,
                           executor=self.executor, workers=self.workers,
                           store=self.store)
        volts = np.array([lane.outcomes[0].metrics["rate_output_v"]
                          for lane in result.lanes])
        dps = np.array([lane.outcomes[0].metrics["rate_output_dps"]
                        for lane in result.lanes])
        return rates, volts, dps

    def measure_sensitivity(self, temperature_c: float = ROOM_TEMPERATURE_C
                            ) -> Tuple[float, float, float]:
        """Measure sensitivity [mV/°/s], null [V] and nonlinearity [% FS]."""
        rates, volts, _ = self.measure_rate_response(temperature_c)
        fit = linear_fit(rates, volts)
        nonlinearity = nonlinearity_percent_fs(
            rates, volts, full_scale_output=abs(fit.slope) * 2.0
            * self.config.full_scale_dps)
        return 1000.0 * fit.slope, fit.offset, nonlinearity

    def measure_noise_density(self, temperature_c: float = ROOM_TEMPERATURE_C
                              ) -> float:
        """Zero-rate rate-noise density in °/s/√Hz."""
        cfg = self.config
        scenario = noise_floor_scenario(temperature_c, cfg.noise_duration_s,
                                        cfg.noise_band_hz)
        result = Campaign([scenario], name="noise-floor").run(self.platform,
                                                              mutate=True)
        return result.lanes[0].outcomes[0].metrics["noise_density"]

    def measure_bandwidth(self, method: str = "analytic") -> float:
        """-3 dB bandwidth of the rate channel in hertz.

        Args:
            method: ``"analytic"`` evaluates the output-filter frequency
                response (fast, used by the tests); ``"measured"`` applies
                sinusoidal rates and measures the output amplitude ratio
                (slow, used by the benches).
        """
        chain = self.platform.conditioner.sense_chain
        if method == "analytic":
            return chain.output_filter.three_db_bandwidth_hz(
                chain.config.sample_rate_hz, max_freq_hz=500.0)
        if method != "measured":
            raise ConfigurationError("method must be 'analytic' or 'measured'")
        cfg = self.config
        freqs = np.asarray(cfg.bandwidth_probe_hz, dtype=np.float64)
        probes = Campaign([bandwidth_probe_scenario(float(freq),
                                                    cfg.bandwidth_amplitude_dps,
                                                    cfg.bandwidth_cycles)
                           for freq in freqs],
                          name="bandwidth-probes")
        result = probes.run(self.platform, engine=self.engine,
                            executor=self.executor, workers=self.workers,
                            store=self.store)
        gains = np.array([lane.outcomes[0].metrics["gain"]
                          for lane in result.lanes])
        return three_db_bandwidth(freqs, gains)

    def measure_turn_on_time(self, temperature_c: float = ROOM_TEMPERATURE_C
                             ) -> float:
        """Turn-on time in milliseconds (power-up to valid output)."""
        result = self.platform.start(temperature_c)
        if result.turn_on_time_s is None:
            raise ConfigurationError("start-up did not complete")
        return 1000.0 * result.turn_on_time_s

    # -- the full datasheet --------------------------------------------------------

    def characterize(self, include_noise: bool = True,
                     include_temperature: bool = True,
                     bandwidth_method: str = "analytic") -> MeasuredPerformance:
        """Run the full characterisation and return the measured datasheet."""
        cfg = self.config
        turn_on_ms = self.measure_turn_on_time()
        sens_mv, null_v, nonlin = self.measure_sensitivity()
        sens_temp = [sens_mv]
        null_temp = [null_v]
        if include_temperature:
            for temp in cfg.temperatures_c:
                self.platform.start(temp)
                s, n, _ = self.measure_sensitivity(temp)
                sens_temp.append(s)
                null_temp.append(n)
            # return to room temperature operation
            self.platform.start(ROOM_TEMPERATURE_C)
        noise = self.measure_noise_density() if include_noise else None
        bandwidth = self.measure_bandwidth(bandwidth_method)
        return MeasuredPerformance(
            device="SensorDynamics platform (simulated)",
            dynamic_range_dps=cfg.full_scale_dps,
            sensitivity_mv_per_dps=abs(sens_mv),
            sensitivity_over_temp_mv=(min(abs(s) for s in sens_temp),
                                      max(abs(s) for s in sens_temp)),
            nonlinearity_pct_fs=nonlin,
            null_v=null_v,
            null_over_temp_v=(min(null_temp), max(null_temp)),
            turn_on_time_ms=turn_on_ms,
            noise_density_dps_rthz=noise,
            bandwidth_hz=bandwidth,
            operating_temp_c=(-40.0, 85.0),
            details={"rate_points": len(cfg.rate_points_dps)},
        )


# ---------------------------------------------------------------------------
# Resilience extractors (fault-injection campaigns)
# ---------------------------------------------------------------------------
#
# Picklable frozen-dataclass extractors (the scenario-library discipline)
# that reduce a faulted scenario's traces and safe-mode snapshot to the
# resilience figures the fault campaigns report.  They read the
# ``safe_mode_*`` / ``overload_time_s`` fields the campaign runner stamps
# onto every :class:`~repro.platform.result.GyroSimulationResult`.


@dataclass(frozen=True)
class DetectionLatency:
    """Extractor: fault onset to safe-mode latch, in seconds (or None).

    ``fault_start_s`` is the fault's activation time relative to the
    scenario start; the latch time is absolute simulation time, so the
    record's first timestamp anchors the conversion.  None when the
    monitor never latched.
    """

    fault_start_s: float = 0.0

    def __call__(self, platform, result) -> Optional[float]:
        if result.safe_mode_entry_s is None or result.time_s.size == 0:
            return None
        onset = float(result.time_s[0]) + self.fault_start_s
        return float(result.safe_mode_entry_s) - onset


@dataclass(frozen=True)
class TimeInSaturation:
    """Extractor: accumulated front-end overload time, in seconds."""

    def __call__(self, platform, result) -> float:
        return float(result.overload_time_s or 0.0)


@dataclass(frozen=True)
class PostFaultBiasShift:
    """Extractor: settled-output shift across a fault window, in °/s.

    Compares the mean rate output over the tail of the pre-fault
    interval against the tail of the post-recovery interval; a platform
    that degrades gracefully recovers to (near) its pre-fault bias.
    """

    fault_start_s: float = 0.01
    fault_stop_s: float = 0.02
    fraction: float = 0.5

    def __call__(self, platform, result) -> float:
        t_rel = result.time_s - result.time_s[0]
        pre = result.rate_output_dps[t_rel < self.fault_start_s]
        post = result.rate_output_dps[t_rel >= self.fault_stop_s]
        if pre.size == 0 or post.size == 0:
            return float("nan")
        pre_tail = pre[int(pre.size * (1.0 - self.fraction)):]
        post_tail = post[int(post.size * (1.0 - self.fraction)):]
        return float(np.mean(post_tail) - np.mean(pre_tail))


@dataclass(frozen=True)
class SurvivedVerdict:
    """Extractor: did the platform survive the fault? (bool)

    Survival means the conditioning chain still reports RUNNING at the
    end of the record and the post-recovery output bias returned to
    within ``tolerance_dps`` of the pre-fault bias.
    """

    fault_start_s: float = 0.01
    fault_stop_s: float = 0.02
    tolerance_dps: float = 10.0
    fraction: float = 0.5

    def __call__(self, platform, result) -> bool:
        if result.running.size == 0 or not bool(result.running[-1]):
            return False
        shift = PostFaultBiasShift(self.fault_start_s, self.fault_stop_s,
                                   self.fraction)(platform, result)
        return bool(np.isfinite(shift) and abs(shift) <= self.tolerance_dps)
