"""The customised gyro conditioning platform (case study of Section 4).

:class:`GyroPlatform` is the mixed-signal co-simulation of the complete
system: the MEMS vibrating-ring sensor, the analog front-end and the
digital conditioning chain, closed in a loop sample by sample exactly as
the silicon closes it through electrodes and pick-offs.  It also owns
the calibration procedure (scale factor, offset, temperature
compensation) that a production part undergoes on the rate table.

This is the object the evaluation harness and the benchmarks drive.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from ..afe.frontend import FrontEndConfig, GyroAnalogFrontEnd
from ..common.exceptions import ConfigurationError, SimulationError
from ..common.timebase import check_duration
from ..common.units import ROOM_TEMPERATURE_C
from ..gyro.calibration import (
    fit_scale_factor,
    fit_temperature_compensation,
    select_reference_slope,
)
from ..gyro.conditioning import GyroConditioner, GyroConditionerConfig
from ..scenarios.engines import get_engine, validate_engine
from ..sensors.environment import Environment
from ..sensors.gyro import GyroParameters, VibratingRingGyro
from .result import GyroSimulationResult
from .safety import SafeModeMonitor


@dataclass
class TemperatureSensorConfig:
    """On-chip temperature sensor used by the digital compensation.

    Attributes:
        offset_error_c: static measurement offset.
        resolution_c: quantisation step of the digital temperature word.
    """

    offset_error_c: float = 0.3
    resolution_c: float = 0.25

    def __post_init__(self) -> None:
        if self.resolution_c <= 0:
            raise ConfigurationError("temperature resolution must be > 0")


@dataclass
class GyroPlatformConfig:
    """Configuration of the complete case-study platform.

    Attributes:
        sample_rate_hz: co-simulation / acquisition sample rate.
        sensor: MEMS gyro parameters.
        frontend: analog front-end configuration.
        conditioner: digital conditioning chain configuration.
        temperature_sensor: on-chip temperature sensor model.
        record_decimation: trace recording decimation factor.
        engine: default simulation engine — ``"compiled"`` (generated
            specialised kernel, lowered to C when a compiler is found
            and run as generated Python otherwise; the fast default) or
            ``"reference"`` (the original object-oriented per-sample
            loop).  Both produce bit-identical traces; see
            ``repro.engine`` and the registry in
            ``repro.scenarios.engines``.
    """

    sample_rate_hz: float = 120_000.0
    sensor: GyroParameters = field(default_factory=GyroParameters)
    frontend: FrontEndConfig = field(default_factory=FrontEndConfig)
    conditioner: GyroConditionerConfig = field(default_factory=GyroConditionerConfig)
    temperature_sensor: TemperatureSensorConfig = field(
        default_factory=TemperatureSensorConfig)
    record_decimation: int = 16
    engine: str = "compiled"

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise ConfigurationError("sample rate must be > 0")
        if self.record_decimation < 1:
            raise ConfigurationError("record decimation must be >= 1")
        validate_engine(self.engine)
        # keep every section on the same time base
        self.frontend.sample_rate_hz = self.sample_rate_hz
        self.conditioner.drive.pll.sample_rate_hz = self.sample_rate_hz
        self.conditioner.sense.sample_rate_hz = self.sample_rate_hz
        self.conditioner.rebalance.sample_rate_hz = self.sample_rate_hz
        self.conditioner.startup.sample_rate_hz = self.sample_rate_hz

    def with_part_variation(self, rng: np.random.Generator,
                            **spreads) -> "GyroPlatformConfig":
        """A copy modelling one more physical device of this design.

        The copy gets a sensor drawn by
        :meth:`~repro.sensors.gyro.GyroParameters.with_part_variation`
        (its own pick-off gain, resonances, offset and noise seed;
        ``spreads`` are that method's spread arguments) and, when the
        front end is seeded, a fresh front-end noise seed — drawn from
        ``rng`` in that order, so one generator seeds a reproducible
        Monte Carlo population.
        """
        config = copy.deepcopy(self)
        config.sensor = config.sensor.with_part_variation(rng, **spreads)
        if config.frontend.seed is not None:
            config.frontend.seed = int(rng.integers(0, 2 ** 31 - 1))
        return config


class GyroPlatform:
    """Mixed-signal co-simulation of the gyro conditioning platform."""

    def __init__(self, config: Optional[GyroPlatformConfig] = None):
        self.config = config or GyroPlatformConfig()
        cfg = self.config
        self.sensor = VibratingRingGyro(cfg.sensor, cfg.sample_rate_hz)
        self.frontend = GyroAnalogFrontEnd(cfg.frontend)
        self.conditioner = GyroConditioner(cfg.conditioner)
        self.safety = SafeModeMonitor()
        self._drive_v = 0.0
        self._control_v = 0.0
        self._time_s = 0.0
        self.calibrated = False

    # -- basic controls ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._time_s

    def reset(self) -> None:
        """Power-cycle the whole platform (sensor at rest, chain at reset)."""
        self.sensor.reset()
        self.frontend.reset()
        self.conditioner.reset()
        self.safety.reset()
        self._drive_v = 0.0
        self._control_v = 0.0
        self._time_s = 0.0

    # -- co-simulation -----------------------------------------------------------

    def run(self, environment: Environment, duration_s: float,
            reset: bool = False, record_waveforms: bool = False,
            engine: Optional[str] = None) -> GyroSimulationResult:
        """Run the co-simulation for ``duration_s`` seconds.

        Simulates this platform in-process from its current state,
        advances it and returns one result.  To run several lanes —
        stimuli, devices, worker processes — describe each as a
        :class:`~repro.scenarios.scenario.Scenario` and run them as one
        :class:`~repro.scenarios.campaign.Campaign`.

        Args:
            environment: applied rate and temperature profiles (time is
                relative to the platform's current simulation time).
            duration_s: how long to simulate, in seconds (finite, > 0).
            reset: power-cycle the platform before running.
            record_waveforms: additionally record the primary pick-off and
                drive-word waveforms (memory-hungry; used by the figure
                benches).
            engine: override the simulation engine for this run
                (:func:`~repro.scenarios.engines.engine_names`).  All
                engines produce bit-identical traces and platform state.

        Raises:
            ConfigurationError: ``environment`` is not one
                :class:`~repro.sensors.environment.Environment`,
                ``duration_s`` is not a finite real > 0, or ``engine``
                is unknown; checked before any reset.
        """
        if not isinstance(environment, Environment):
            raise ConfigurationError(
                "GyroPlatform.run takes one Environment, got "
                f"{type(environment).__name__}; run several lanes as a "
                "Campaign of scenarios")
        duration_s = check_duration(duration_s)
        spec = get_engine(engine or self.config.engine)
        if reset:
            self.reset()
        result = spec.run(self, environment, duration_s, record_waveforms)
        self.safety.observe(self._time_s, self.frontend.overload, duration_s)
        return dataclasses.replace(result, **self.safety.result_fields())

    def _run_reference(self, environment: Environment, duration_s: float,
                       record_waveforms: bool = False) -> GyroSimulationResult:
        """The original object-oriented per-sample loop (ground truth).

        Validation and reset are handled by the caller (:meth:`run` or
        the engine registry).  Raises the compiled engine's exception
        types for the same bad input: :class:`ConfigurationError` for a
        zero or non-finite divisor constant or a non-finite stimulus
        sample, :class:`SimulationError` when the loop fails on the way.
        """
        from ..engine.state import check_divisors, gather_consts, \
            pack_scalar_state
        check_divisors(gather_consts(self, self._time_s))
        cfg = self.config
        fs = cfg.sample_rate_hz
        dt = 1.0 / fs
        n = int(round(duration_s * fs))
        dec = cfg.record_decimation
        n_rec = n // dec + 1

        time_tr = np.zeros(n_rec)
        rate_tr = np.zeros(n_rec)
        temp_tr = np.zeros(n_rec)
        out_dps_tr = np.zeros(n_rec)
        out_v_tr = np.zeros(n_rec)
        agc_tr = np.zeros(n_rec)
        agc_err_tr = np.zeros(n_rec)
        perr_tr = np.zeros(n_rec)
        vco_tr = np.zeros(n_rec)
        lock_tr = np.zeros(n_rec, dtype=bool)
        run_tr = np.zeros(n_rec, dtype=bool)
        pick_tr = np.zeros(n_rec) if record_waveforms else None
        drive_tr = np.zeros(n_rec) if record_waveforms else None

        sensor = self.sensor
        frontend = self.frontend
        conditioner = self.conditioner
        tsensor = cfg.temperature_sensor
        rate_profile = environment.rate_dps
        temp_profile = environment.temperature_c
        start_time = self._time_s

        rec = 0
        drive_v = self._drive_v
        control_v = self._control_v
        try:
            for i in range(n):
                t = i * dt
                rate_dps = rate_profile.value(t)
                temp_c = temp_profile.value(t)
                if not (math.isfinite(rate_dps) and math.isfinite(temp_c)):
                    name, profile = (("rate", rate_profile)
                                     if not math.isfinite(rate_dps)
                                     else ("temperature", temp_profile))
                    raise ConfigurationError(
                        f"{name} profile {profile!r} is not finite at "
                        f"t = {t:g} s")

                primary_v, secondary_v = sensor.step(drive_v, control_v,
                                                     rate_dps, temp_c)
                p_norm, s_norm = frontend.acquire(primary_v, secondary_v,
                                                  temp_c)
                measured_temp = (round((temp_c + tsensor.offset_error_c)
                                       / tsensor.resolution_c)
                                 * tsensor.resolution_c)
                drive_word, control_word, rate_word = conditioner.step(
                    p_norm, s_norm, measured_temp)
                drive_v, control_v = frontend.drive(drive_word, control_word,
                                                    temp_c)

                if i % dec == 0:
                    out_v = frontend.rate_output(rate_word, temp_c)
                    time_tr[rec] = start_time + t
                    rate_tr[rec] = rate_dps
                    temp_tr[rec] = temp_c
                    out_dps_tr[rec] = conditioner.rate_dps
                    out_v_tr[rec] = out_v
                    agc_tr[rec] = conditioner.drive_loop.amplitude_control
                    agc_err_tr[rec] = conditioner.drive_loop.amplitude_error
                    perr_tr[rec] = conditioner.drive_loop.phase_error
                    vco_tr[rec] = conditioner.drive_loop.vco_control
                    lock_tr[rec] = conditioner.drive_loop.locked
                    run_tr[rec] = conditioner.running
                    if record_waveforms:
                        pick_tr[rec] = p_norm
                        drive_tr[rec] = drive_word
                    rec += 1
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise SimulationError(
                f"the loop failed at t = {i * dt:g} s: {exc}") from exc
        if not np.isfinite(pack_scalar_state(self)).all():
            raise SimulationError("the loop state left the finite range")

        self._drive_v = drive_v
        self._control_v = control_v
        self._time_s = start_time + n * dt

        return GyroSimulationResult(
            time_s=time_tr[:rec],
            sample_rate_hz=fs / dec,
            true_rate_dps=rate_tr[:rec],
            temperature_c=temp_tr[:rec],
            rate_output_dps=out_dps_tr[:rec],
            rate_output_v=out_v_tr[:rec],
            amplitude_control=agc_tr[:rec],
            amplitude_error=agc_err_tr[:rec],
            phase_error=perr_tr[:rec],
            vco_control=vco_tr[:rec],
            pll_locked=lock_tr[:rec],
            running=run_tr[:rec],
            primary_pickoff_norm=pick_tr[:rec] if record_waveforms else None,
            drive_word=drive_tr[:rec] if record_waveforms else None,
            turn_on_time_s=conditioner.startup.turn_on_time_s,
        )

    # -- start-up and calibration -------------------------------------------------

    def start(self, temperature_c: float = ROOM_TEMPERATURE_C,
              max_duration_s: float = 1.5,
              chunk_s: float = 0.1) -> GyroSimulationResult:
        """Power-cycle and run until start-up completes (or the limit expires).

        The start-up scenario proceeds in ``chunk_s`` slices and stops
        as soon as the start-up sequencer reports RUNNING, so a healthy
        part does not pay for the full watchdog window.
        """
        from ..scenarios.campaign import Campaign
        from ..scenarios.library import startup_scenario

        scenario = startup_scenario(temperature_c, max_duration_s, chunk_s)
        result = Campaign([scenario], name="startup").run(platforms=[self])
        return result.lanes[0].outcomes[0].result

    def measure_settled_output(self, rate_dps: float, temperature_c: float,
                               duration_s: float = 0.2) -> Tuple[float, float, float]:
        """Apply a constant rate and return settled chain outputs.

        Returns:
            ``(rate_channel, rate_output_dps, rate_output_v)``; the
            outputs are averaged over the settled tail of the window and
            the raw (uncompensated) channel value is read from the chain
            state, exactly as the settled-output scenario defines.
        """
        from ..scenarios.campaign import Campaign
        from ..scenarios.library import settled_output_scenario

        scenario = settled_output_scenario(rate_dps, temperature_c, duration_s)
        result = Campaign([scenario], name="settled-output").run(
            platforms=[self])
        metrics = result.lanes[0].outcomes[0].metrics
        return (metrics["raw_channel"], metrics["rate_output_dps"],
                metrics["rate_output_v"])

    def calibrate(self, rates_dps: Sequence[float] = (-200.0, 0.0, 200.0),
                  temperature_c: float = ROOM_TEMPERATURE_C,
                  settle_s: float = 0.25,
                  engine: Optional[str] = None,
                  executor: Optional[str] = None,
                  workers: Optional[int] = None) -> None:
        """Factory calibration of scale factor and zero-rate offset.

        Runs start-up on this platform, then measures every calibration
        rate as one campaign of settled-output scenarios branching from
        the started state — one fleet lane per rate-table point — fits
        the response and programs the sense-chain scaler and offset
        compensation.

        Args:
            engine: campaign engine for the rate sweep (default: the
                platform's configured engine).  Every engine and lane
                backend programs bit-identical calibration words (locked
                by ``tests/test_scenarios.py``).
            executor: campaign executor for the rate sweep; the
                ``"sharded"`` executor programs bit-identical
                calibration words from worker processes.
            workers: worker-process count for the sharded executor.
        """
        from ..scenarios.campaign import Campaign
        from ..scenarios.library import rate_table_scenarios

        self.start(temperature_c)
        sweep = Campaign(rate_table_scenarios(rates_dps, temperature_c,
                                              settle_s),
                         name="calibration-sweep")
        result = sweep.run(self, engine=engine, executor=executor,
                           workers=workers)
        channels = [lane.outcomes[0].metrics["raw_channel"]
                    for lane in result.lanes]
        calibration = fit_scale_factor(rates_dps, channels)
        self.conditioner.sense_chain.calibrate_scale(calibration.channel_per_dps)
        self.conditioner.sense_chain.calibrate_offset(calibration.channel_offset)
        self.calibrated = True

    def calibrate_temperature(self,
                              temperatures_c: Sequence[float] = (-40.0, 25.0, 85.0),
                              probe_rate_dps: float = 100.0,
                              settle_s: float = 0.25,
                              engine: Optional[str] = None,
                              executor: Optional[str] = None,
                              workers: Optional[int] = None) -> None:
        """Fit and install temperature-compensation polynomials.

        Each temperature leg is one lane program — restart at the
        temperature, measure the zero-rate channel, measure the
        sensitivity at ``probe_rate_dps`` — and the legs run as one
        campaign (one fleet whose lanes leave start-up independently,
        exactly like the chunked ``start()`` loop).
        First-order compensation polynomials are fitted from the
        per-leg metrics.
        """
        if not self.calibrated:
            raise SimulationError("run calibrate() before calibrate_temperature()")
        from ..scenarios.campaign import Campaign
        from ..scenarios.library import settled_output_scenario, startup_scenario

        static_offset = self.conditioner.sense_chain.offset_comp.offset
        programs = [[startup_scenario(temp),
                     settled_output_scenario(0.0, temp, settle_s,
                                             name=f"zero@{temp:g}C"),
                     settled_output_scenario(probe_rate_dps, temp, settle_s,
                                             name=f"probe@{temp:g}C")]
                    for temp in temperatures_c]
        result = Campaign(programs, name="temperature-calibration").run(
            self, engine=engine, executor=executor, workers=workers)
        offsets = []
        slopes = []
        for lane in result.lanes:
            zero_raw = lane.outcomes[1].metrics["raw_channel"]
            pos_raw = lane.outcomes[2].metrics["raw_channel"]
            slopes.append((pos_raw - zero_raw) / probe_rate_dps)
            # residual offset after the static compensation, in the raw
            # channel units the temperature compensation operates on
            offsets.append(zero_raw - static_offset)
        reference_slope = select_reference_slope(temperatures_c, slopes,
                                                 ROOM_TEMPERATURE_C)
        ratios = [s / reference_slope for s in slopes]
        config = fit_temperature_compensation(temperatures_c, offsets, ratios)
        self.conditioner.sense_chain.calibrate_temperature(config)
