"""Design-space exploration over the platform's programmable parameters.

"Through simulations, design iterations and functional blocks
refinements a project space exploration can be performed."  The explorer
sweeps the front-end / DSP parameters that the platform leaves
programmable (ADC resolution, DSP word length, output-filter order and
bandwidth) and scores each point with fast analytic models of the two
costs that matter at this stage — rate-noise floor and digital size —
so the designer can pick a point on the Pareto front before committing
to the expensive mixed-signal simulation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..common.exceptions import ConfigurationError


@dataclass(frozen=True)
class DesignPoint:
    """One combination of programmable parameters."""

    adc_bits: int
    dsp_word_length: int
    output_filter_order: int
    output_bandwidth_hz: float


@dataclass
class EvaluatedPoint:
    """A design point with its estimated performance and cost."""

    point: DesignPoint
    noise_density_dps_rthz: float
    digital_gates: int
    analog_area_mm2: float
    score: float

    def summary(self) -> str:
        p = self.point
        return (f"ADC {p.adc_bits} b, DSP {p.dsp_word_length} b, "
                f"filter order {p.output_filter_order} @ {p.output_bandwidth_hz:.0f} Hz: "
                f"noise {self.noise_density_dps_rthz:.3f} deg/s/rtHz, "
                f"{self.digital_gates} gates, score {self.score:.3f}")


@dataclass
class DseConfig:
    """Sweep ranges and scoring weights.

    The noise model combines the mechanical (Brownian) noise floor with
    the ADC and DSP quantisation noise referred to rate; the cost model
    scales the filter/datapath gate counts with word length and order.
    """

    adc_bits: Sequence[int] = (8, 10, 12, 14)
    dsp_word_lengths: Sequence[int] = (12, 16, 20, 24)
    filter_orders: Sequence[int] = (2, 4, 6)
    bandwidths_hz: Sequence[float] = (25.0, 50.0, 75.0)
    mechanical_noise_dps_rthz: float = 0.05
    full_scale_dps: float = 300.0
    sample_rate_hz: float = 120_000.0
    noise_weight: float = 10.0
    gate_weight: float = 1e-5
    area_weight: float = 0.2
    max_noise_dps_rthz: float = 0.13

    def __post_init__(self) -> None:
        if not self.adc_bits or not self.dsp_word_lengths:
            raise ConfigurationError("sweep ranges cannot be empty")


def _estimate_noise(point: DesignPoint, cfg: DseConfig) -> float:
    """Analytic rate-noise estimate for a design point."""
    # ADC quantisation noise referred to rate: the full-scale rate maps to
    # roughly 1/8 of the converter range through the secondary channel gain.
    adc_lsb_rate = cfg.full_scale_dps * 8.0 / (2 ** point.adc_bits)
    adc_density = adc_lsb_rate / np.sqrt(12.0) / np.sqrt(cfg.sample_rate_hz / 2.0)
    dsp_lsb_rate = cfg.full_scale_dps * 2.0 / (2 ** point.dsp_word_length)
    dsp_density = dsp_lsb_rate / np.sqrt(12.0) / np.sqrt(cfg.sample_rate_hz / 2.0)
    # aliasing penalty for low filter orders: wideband noise folds into the
    # output band when the roll-off is shallow
    alias_penalty = 1.0 + 0.5 / point.output_filter_order
    return float(np.sqrt(cfg.mechanical_noise_dps_rthz ** 2
                         + (adc_density * alias_penalty) ** 2
                         + dsp_density ** 2))


def _estimate_gates(point: DesignPoint) -> int:
    """Analytic digital-size estimate for a design point."""
    datapath = 2200 * point.dsp_word_length          # PLL + AGC + demod datapath
    filters = 900 * point.output_filter_order * point.dsp_word_length // 4
    control = 30_000                                  # fixed control/monitor logic
    return int(datapath + filters + control)


def _estimate_analog_area(point: DesignPoint) -> float:
    """Analog area estimate: the SAR ADC grows with resolution."""
    return 2.5 + 0.18 * max(0, point.adc_bits - 8)


def evaluate_point(point: DesignPoint, config: Optional[DseConfig] = None
                   ) -> EvaluatedPoint:
    """Evaluate one design point with the analytic models."""
    cfg = config or DseConfig()
    noise = _estimate_noise(point, cfg)
    gates = _estimate_gates(point)
    area = _estimate_analog_area(point)
    score = (cfg.noise_weight * noise + cfg.gate_weight * gates
             + cfg.area_weight * area)
    return EvaluatedPoint(point, noise, gates, area, score)


def explore(config: Optional[DseConfig] = None) -> List[EvaluatedPoint]:
    """Evaluate the full sweep and return points sorted by score."""
    cfg = config or DseConfig()
    points = [DesignPoint(a, w, o, b)
              for a, w, o, b in itertools.product(cfg.adc_bits, cfg.dsp_word_lengths,
                                                  cfg.filter_orders, cfg.bandwidths_hz)]
    evaluated = [evaluate_point(p, cfg) for p in points]
    return sorted(evaluated, key=lambda e: e.score)


def pareto_front(evaluated: Sequence[EvaluatedPoint]) -> List[EvaluatedPoint]:
    """Noise-vs-gates Pareto-optimal subset of the evaluated points."""
    front: List[EvaluatedPoint] = []
    for candidate in evaluated:
        dominated = any(
            other.noise_density_dps_rthz <= candidate.noise_density_dps_rthz
            and other.digital_gates <= candidate.digital_gates
            and (other.noise_density_dps_rthz < candidate.noise_density_dps_rthz
                 or other.digital_gates < candidate.digital_gates)
            for other in evaluated)
        if not dominated:
            front.append(candidate)
    return sorted(front, key=lambda e: e.noise_density_dps_rthz)


def recommend(config: Optional[DseConfig] = None) -> EvaluatedPoint:
    """Best-scoring point that meets the Table 1 noise requirement."""
    cfg = config or DseConfig()
    candidates = [e for e in explore(cfg)
                  if e.noise_density_dps_rthz <= cfg.max_noise_dps_rthz]
    if not candidates:
        raise ConfigurationError("no design point satisfies the noise requirement")
    return candidates[0]


# ---------------------------------------------------------------------------
# Simulation-backed validation (fleet co-simulation through campaigns)
# ---------------------------------------------------------------------------

@dataclass
class SimulatedPoint:
    """A design point validated with the true mixed-signal co-simulation.

    Where :class:`EvaluatedPoint` scores a point with fast analytic
    models, this carries metrics *measured* on simulated traces of the
    fully configured platform: one fleet runs a still scenario (noise
    floor, zero-rate offset) and ±probe-rate scenarios (scale factor),
    and the rate-referred metrics come from a
    two-point fit of the simulated response — exactly what the rate
    table does to a physical part.

    The measured fields are ``nan`` if start-up did not complete within
    the simulated window or the datapath wiped out the rate signal
    (e.g. a word length too short for the channel scaling).
    """

    analytic: EvaluatedPoint
    measured_noise_dps_rthz: float
    measured_offset_dps: float
    measured_scale_channel_per_dps: float
    turn_on_time_s: Optional[float]

    @property
    def point(self) -> DesignPoint:
        return self.analytic.point

    @property
    def started(self) -> bool:
        """Whether the simulated platform completed start-up."""
        return self.turn_on_time_s is not None

    @property
    def responsive(self) -> bool:
        """Whether the simulated output actually responded to rate."""
        return (self.started
                and not math.isnan(self.measured_scale_channel_per_dps)
                and self.measured_scale_channel_per_dps != 0.0)

    def summary(self) -> str:
        p = self.point
        head = (f"ADC {p.adc_bits} b, DSP {p.dsp_word_length} b, "
                f"filter order {p.output_filter_order} @ "
                f"{p.output_bandwidth_hz:.0f} Hz: ")
        if not self.started:
            return head + "start-up did not complete in the simulated window"
        if not self.responsive:
            return head + ("datapath quantisation wiped out the rate signal "
                           f"(turn-on {self.turn_on_time_s * 1000:.0f} ms)")
        return (head + f"measured noise {self.measured_noise_dps_rthz:.3f} "
                f"deg/s/rtHz (model {self.analytic.noise_density_dps_rthz:.3f}), "
                f"offset {self.measured_offset_dps:+.2f} deg/s, "
                f"turn-on {self.turn_on_time_s * 1000:.0f} ms")


def platform_config_for_point(point: DesignPoint):
    """Map a :class:`DesignPoint` onto a full platform configuration.

    The sweep's programmable parameters land where the silicon exposes
    them: ADC resolution on both SAR channels, the DSP word length as
    the drive/sense fixed-point output format (sign + 1 integer bit,
    the rest fractional, as in the 16-bit prototype datapath), and the
    output filter order/bandwidth on the sense chain.
    """
    import dataclasses

    from ..common.fixedpoint import QFormat
    from ..platform.gyro_platform import GyroPlatformConfig

    if point.dsp_word_length < 8:
        raise ConfigurationError("DSP word length must be >= 8 bits")
    config = GyroPlatformConfig()
    config.frontend.adc = dataclasses.replace(config.frontend.adc,
                                              bits=point.adc_bits)
    fmt = QFormat(int_bits=1, frac_bits=point.dsp_word_length - 2)
    config.conditioner.drive.output_format = fmt
    config.conditioner.sense.output_format = fmt
    config.conditioner.sense.output_filter_order = point.output_filter_order
    config.conditioner.sense.output_bandwidth_hz = point.output_bandwidth_hz
    return config


def _simulated_from_lanes(evaluated: EvaluatedPoint, still, pos, neg,
                          probe_rate_dps: float) -> SimulatedPoint:
    """Reduce the three validation-lane outcomes to a SimulatedPoint."""
    turn_on = still.metrics["turn_on_time_s"]
    nan = float("nan")
    if turn_on is None or not still.metrics["running_at_end"]:
        return SimulatedPoint(evaluated, nan, nan, nan, None)

    # two-point fit of the uncalibrated channel response (the traces are
    # in channel units: the scaler is at its unity factory default)
    zero = still.metrics["tail_mean_dps"]
    span = pos.metrics["tail_mean_dps"] - neg.metrics["tail_mean_dps"]
    channel_per_dps = span / (2.0 * probe_rate_dps)
    if channel_per_dps == 0.0:
        return SimulatedPoint(evaluated, nan, nan, 0.0, turn_on)

    # rate-referred noise density over the output filter's bandwidth
    noise_density = (still.metrics["tail_std_dps"] / abs(channel_per_dps)
                     / float(np.sqrt(evaluated.point.output_bandwidth_hz)))
    offset_dps = zero / channel_per_dps
    return SimulatedPoint(evaluated, noise_density, offset_dps,
                          channel_per_dps, turn_on)


def simulate_point(evaluated: EvaluatedPoint, duration_s: float = 0.7,
                   probe_rate_dps: float = 100.0,
                   settle_fraction: float = 0.6) -> SimulatedPoint:
    """Validate one design point through the campaign runner.

    The three validation scenarios — at rest (noise floor) and at
    ±``probe_rate_dps`` (scale factor) — run as one campaign on
    identically configured platforms.  The metrics
    come from the settled tail of the traces, so ``duration_s`` must
    leave room for start-up (~0.5 s) plus a settled window.
    """
    from ..scenarios.campaign import Campaign
    from ..scenarios.library import design_validation_scenarios

    config = platform_config_for_point(evaluated.point)
    scenarios = design_validation_scenarios(probe_rate_dps, duration_s,
                                            settle_fraction)
    result = Campaign(scenarios, name="dse-validation").run(config=config)
    still, pos, neg = [lane.outcomes[0] for lane in result.lanes]
    return _simulated_from_lanes(evaluated, still, pos, neg, probe_rate_dps)


def validate_with_simulation(evaluated: Sequence[EvaluatedPoint],
                             duration_s: float = 0.7,
                             probe_rate_dps: float = 100.0
                             ) -> List[SimulatedPoint]:
    """Run :func:`simulate_point` over a set of candidate points.

    Each point gets its own three-scenario campaign; use :func:`sweep`
    to run every point in one campaign.
    """
    return [simulate_point(e, duration_s=duration_s,
                           probe_rate_dps=probe_rate_dps) for e in evaluated]


def sweep(config: Optional[DseConfig] = None,
          points: Optional[Sequence[EvaluatedPoint]] = None,
          duration_s: float = 0.7, probe_rate_dps: float = 100.0,
          settle_fraction: float = 0.6,
          min_points: int = 8,
          max_points: Optional[int] = None,
          executor: Optional[str] = None,
          workers: Optional[int] = None,
          store=None) -> List[SimulatedPoint]:
    """Full simulation-backed DSE sweep over the Pareto front.

    Explores the analytic design space, takes the noise-vs-gates Pareto
    front (topped up with the next best-scoring points to at least
    ``min_points``) and validates every candidate with the true
    mixed-signal co-simulation, all in one campaign — three scenarios
    per point, so ``k`` points run as one ``3k``-lane fleet.

    Args:
        config: sweep ranges for the analytic exploration (ignored when
            ``points`` is given).
        points: explicit candidates to validate instead of the front.
        min_points: top up the front to at least this many candidates.
        max_points: cap the number of candidates (lowest noise first),
            for quick looks at large fronts.
        executor: campaign executor for the validation campaign
            (``"local"`` in-process, ``"sharded"`` across worker
            processes with a resumable manifest); metrics are
            bit-identical either way.
        workers: worker-process count for the sharded executor.
        store: a :class:`repro.store.ResultStore` backing the validation
            campaign — design points whose configuration and scenarios
            are unchanged since a previous sweep are served from the
            store, so only new or changed candidates re-simulate.

    Returns:
        One :class:`SimulatedPoint` per candidate, in candidate order —
        including the unresponsive ones, so datapaths that quantise the
        rate signal to nothing (the known Q1.14 order-4 failure mode)
        are reported honestly rather than dropped.
    """
    from ..scenarios.campaign import Campaign
    from ..scenarios.library import design_validation_scenarios

    if points is None:
        evaluated = explore(config)
        candidates = pareto_front(evaluated)
        if len(candidates) < min_points:
            chosen = {id(c) for c in candidates}
            extra = [e for e in evaluated if id(e) not in chosen]
            candidates = candidates + extra[:min_points - len(candidates)]
    else:
        candidates = list(points)
    if max_points is not None:
        candidates = candidates[:max_points]
    if not candidates:
        raise ConfigurationError("no design points to sweep")

    programs = []
    platforms = []
    for candidate in candidates:
        scenarios = design_validation_scenarios(probe_rate_dps, duration_s,
                                                settle_fraction)
        programs.extend(scenarios)
        platforms.extend(_platforms_for_config(
            platform_config_for_point(candidate.point), len(scenarios)))
    result = Campaign(programs, name="dse-sweep").run(
        platforms=platforms, executor=executor, workers=workers, store=store)
    return [_simulated_from_lanes(candidate,
                                  *[lane.outcomes[0] for lane
                                    in result.lanes[3 * slot:3 * slot + 3]],
                                  probe_rate_dps)
            for slot, candidate in enumerate(candidates)]


def _platforms_for_config(config, n: int) -> list:
    """Build ``n`` identically configured platforms for campaign lanes."""
    import copy

    from ..platform.gyro_platform import GyroPlatform
    return [GyroPlatform(copy.deepcopy(config)) for _ in range(n)]
