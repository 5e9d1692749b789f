"""Reusable scenario library for the standard platform run loops.

Every run loop the codebase used to hand-roll — chunked start-up,
settled rate-table points, zero-rate noise records, sinusoidal
bandwidth probes and the DSE validation trio — is expressed here as a
named :class:`~repro.scenarios.scenario.Scenario` builder, so the
platform calibration procedures, the characterisation harness, the
baseline-device comparison and the simulation-backed DSE all replay the
*same* campaign definitions instead of private loops.

The metric extractors are small frozen-dataclass callables rather than
closures, so every library scenario **pickles**: the sharded campaign
executor ships lane programs to worker processes by pickling them, and
the manifest layer digests them for resume verification.  User-defined
scenarios may still use lambdas — they just stay restricted to the
in-process ``"local"`` executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..common.noise import band_average_density
from ..common.units import ROOM_TEMPERATURE_C
from ..sensors.environment import Environment
from .scenario import Scenario


def tail_mean(record: np.ndarray, fraction: float) -> float:
    """Mean of the last ``fraction`` of a record (the settled tail)."""
    record = np.asarray(record, dtype=np.float64)
    start = int(record.size * (1.0 - fraction))
    return float(np.mean(record[start:]))


def startup_complete(platform) -> bool:
    """Stop condition: the start-up sequencer reports RUNNING."""
    return platform.conditioner.running


def noise_density_from_record(record: np.ndarray, sample_rate_hz: float,
                              band_hz: Tuple[float, float],
                              skip_fraction: float = 0.2) -> float:
    """Band-averaged ASD of a zero-rate record, transient skipped."""
    record = np.asarray(record, dtype=np.float64)
    record = record[int(record.size * skip_fraction):]
    return band_average_density(record, sample_rate_hz, band_hz)


# ---------------------------------------------------------------------------
# Picklable metric extractors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceTailMean:
    """Extractor: settled-tail mean of one recorded trace."""

    trace: str = "rate_output_dps"
    fraction: float = 0.4

    def __call__(self, platform, result) -> float:
        return tail_mean(getattr(result, self.trace), self.fraction)


@dataclass(frozen=True)
class TraceTailStd:
    """Extractor: standard deviation over the settled tail of a trace."""

    trace: str = "rate_output_dps"
    fraction: float = 0.6

    def __call__(self, platform, result) -> float:
        record = getattr(result, self.trace)
        return float(np.std(record[result.settled_slice(self.fraction)]))


@dataclass(frozen=True)
class RawRateChannel:
    """Extractor: uncompensated sense-channel value from the chain state.

    The channel is heavily low-pass filtered, so the instantaneous value
    at scenario end represents the settled mean — exactly what
    :meth:`GyroPlatform.measure_settled_output` reads.
    """

    def __call__(self, platform, result) -> float:
        return platform.conditioner.sense_chain.rate_channel


@dataclass(frozen=True)
class TurnOnTime:
    """Extractor: measured turn-on time (None if start-up incomplete)."""

    def __call__(self, platform, result):
        return result.turn_on_time_s


@dataclass(frozen=True)
class RunningAtEnd:
    """Extractor: whether the start-up sequencer reported RUNNING at end."""

    def __call__(self, platform, result) -> bool:
        return bool(result.running[-1])


@dataclass(frozen=True)
class NoiseDensity:
    """Extractor: in-band rate-noise density of a zero-rate record.

    Constructing one imports ``scipy.signal`` (for ``welch``), so the
    process that builds a noise campaign loads it once and the forked
    shard workers of a sharded run inherit it.
    """

    band_hz: Tuple[float, float] = (2.0, 20.0)
    skip_fraction: float = 0.2

    def __post_init__(self) -> None:
        import scipy.signal  # noqa: F401

    def __call__(self, platform, result) -> float:
        return noise_density_from_record(result.rate_output_dps,
                                         result.sample_rate_hz,
                                         tuple(self.band_hz),
                                         self.skip_fraction)


@dataclass(frozen=True)
class SineResponseGain:
    """Extractor: output amplitude gain of a sinusoidal rate probe."""

    amplitude_dps: float = 1.0
    fraction: float = 0.6

    def __call__(self, platform, result) -> float:
        response = result.rate_output_dps[result.settled_slice(self.fraction)]
        return float(np.sqrt(2.0) * np.std(response)) / self.amplitude_dps


# ---------------------------------------------------------------------------
# Scenario builders
# ---------------------------------------------------------------------------

def startup_scenario(temperature_c: float = ROOM_TEMPERATURE_C,
                     max_duration_s: float = 1.5,
                     chunk_s: float = 0.1) -> Scenario:
    """Power-cycle and run until start-up completes (chunked early stop).

    Exactly the loop :meth:`GyroPlatform.start` has always run: the
    simulation proceeds in ``chunk_s`` slices and stops at the first
    chunk boundary where the sequencer reports RUNNING, so a healthy
    part does not pay for the full watchdog window; a part that never
    starts raises :class:`SimulationError`.
    """
    return Scenario(
        name=f"startup@{temperature_c:g}C",
        environment=Environment.still(temperature_c),
        duration_s=max_duration_s,
        reset=True,
        stop=startup_complete,
        stop_check_s=chunk_s,
        require_stop=True,
        timeout_message=("conditioning chain failed to complete start-up "
                         f"within {max_duration_s} s"),
        extractors={
            "turn_on_time_s": TurnOnTime(),
        })


def settled_output_scenario(rate_dps: float,
                            temperature_c: float = ROOM_TEMPERATURE_C,
                            settle_s: float = 0.2,
                            settle_fraction: float = 0.4,
                            reset: bool = False,
                            name: str = None) -> Scenario:
    """Constant applied rate, measured over the settled tail.

    Extractors mirror :meth:`GyroPlatform.measure_settled_output`:
    ``raw_channel`` is the uncompensated sense-channel value read from
    the chain state (heavily low-pass filtered, so the instantaneous
    value represents the settled mean), ``rate_output_dps`` /
    ``rate_output_v`` are tail means of the recorded outputs.
    """
    return Scenario(
        name=name or f"settled[{rate_dps:+g}dps@{temperature_c:g}C]",
        environment=Environment.constant_rate(rate_dps, temperature_c),
        duration_s=settle_s,
        reset=reset,
        extractors={
            "raw_channel": RawRateChannel(),
            "rate_output_dps": TraceTailMean("rate_output_dps",
                                             settle_fraction),
            "rate_output_v": TraceTailMean("rate_output_v", settle_fraction),
        })


def rate_table_scenarios(rates_dps: Sequence[float],
                         temperature_c: float = ROOM_TEMPERATURE_C,
                         settle_s: float = 0.2,
                         settle_fraction: float = 0.4,
                         reset: bool = False) -> List[Scenario]:
    """One settled-output scenario per rate-table point.

    This is the shared definition of a rate-table sweep: factory
    calibration, the datasheet sensitivity measurement and the
    baseline-device comparison all consume it, so every device is
    characterised by the identical campaign (the baselines power-cycle
    between points, ``reset=True``, since they have no start-up state to
    preserve).
    """
    return [settled_output_scenario(float(rate), temperature_c, settle_s,
                                    settle_fraction, reset=reset)
            for rate in rates_dps]


def noise_floor_scenario(temperature_c: float = ROOM_TEMPERATURE_C,
                         duration_s: float = 1.5,
                         band_hz: Tuple[float, float] = (2.0, 20.0),
                         skip_fraction: float = 0.2,
                         reset: bool = False) -> Scenario:
    """Zero-rate record reduced to an in-band rate-noise density.

    The first ``skip_fraction`` of the record is dropped to avoid any
    residual settling transient, as the characterisation harness has
    always done.
    """
    return Scenario(
        name=f"noise-floor@{temperature_c:g}C",
        environment=Environment.still(temperature_c),
        duration_s=duration_s,
        reset=reset,
        extractors={
            "noise_density": NoiseDensity(tuple(band_hz), skip_fraction),
        })


def bandwidth_probe_scenario(frequency_hz: float, amplitude_dps: float,
                             cycles: float = 8.0,
                             min_duration_s: float = 0.2,
                             settle_fraction: float = 0.6) -> Scenario:
    """Sinusoidal rate probe reduced to an output amplitude gain."""
    return Scenario(
        name=f"bandwidth-probe[{frequency_hz:g}Hz]",
        environment=Environment.sinusoidal_rate(amplitude_dps, frequency_hz),
        duration_s=max(cycles / frequency_hz, min_duration_s),
        extractors={"gain": SineResponseGain(amplitude_dps, settle_fraction)})


def design_validation_scenarios(probe_rate_dps: float = 100.0,
                                duration_s: float = 0.7,
                                settle_fraction: float = 0.6
                                ) -> List[Scenario]:
    """The DSE validation trio: at rest and at ±``probe_rate_dps``.

    Each scenario power-cycles its lane and measures the settled tail —
    exactly what the rate table does to a physical part.  The still
    scenario additionally reports whether start-up completed and the
    tail spread (the noise measurement).
    """

    def probe(rate):
        return Scenario(
            name=f"dse-probe[{rate:+g}dps]",
            environment=Environment.constant_rate(rate),
            duration_s=duration_s,
            reset=True,
            extractors={
                "tail_mean_dps": TraceTailMean("rate_output_dps",
                                               settle_fraction),
            })

    still = Scenario(
        name="dse-still",
        environment=Environment.still(),
        duration_s=duration_s,
        reset=True,
        extractors={
            "turn_on_time_s": TurnOnTime(),
            "running_at_end": RunningAtEnd(),
            "tail_mean_dps": TraceTailMean("rate_output_dps",
                                           settle_fraction),
            "tail_std_dps": TraceTailStd("rate_output_dps", settle_fraction),
        })
    return [still, probe(probe_rate_dps), probe(-probe_rate_dps)]


def fault_scenario(fault, rate_dps: float = 80.0,
                   duration_s: float = 0.03,
                   temperature_c: float = ROOM_TEMPERATURE_C,
                   name: str = None,
                   tolerance_dps: float = 10.0) -> Scenario:
    """One fault-injection scenario with the standard resilience metrics.

    The platform holds a constant applied rate while ``fault`` (any
    :mod:`repro.faults` model) is armed over its activation window; the
    extractors reduce the run to the resilience figures of the fault
    campaigns — detection latency, time in saturation, post-fault bias
    shift and a survived/failed verdict.
    """
    # lazy: repro.eval.metrics imports this module at module level
    from ..eval.metrics import (
        DetectionLatency,
        PostFaultBiasShift,
        SurvivedVerdict,
        TimeInSaturation,
    )
    start = float(fault.t_start)
    stop = float(duration_s if fault.t_stop is None else fault.t_stop)
    return Scenario(
        name=name or f"fault[{type(fault).__name__}@{rate_dps:+g}dps]",
        environment=Environment.constant_rate(rate_dps, temperature_c),
        duration_s=duration_s,
        faults=(fault,),
        extractors={
            "detection_latency_s": DetectionLatency(start),
            "time_in_saturation_s": TimeInSaturation(),
            "post_fault_bias_shift_dps": PostFaultBiasShift(start, stop),
            "survived": SurvivedVerdict(start, stop, tolerance_dps),
        })


def fault_matrix_scenarios(faults: Sequence, rate_dps: float = 80.0,
                           duration_s: float = 0.03,
                           temperature_c: float = ROOM_TEMPERATURE_C
                           ) -> List[Scenario]:
    """One :func:`fault_scenario` per fault model (a resilience row)."""
    return [fault_scenario(fault, rate_dps, duration_s, temperature_c,
                           name=f"fault[{type(fault).__name__}#{i}"
                                f"@{rate_dps:+g}dps]")
            for i, fault in enumerate(faults)]
