"""Shared state/coefficient plumbing for the fast co-simulation engines.

The generated kernels flatten the object-oriented reference chain
(sensor → AFE → DSP → DACs) into plain locals / NumPy rows.  This
module is the one place that knows how: it packs every loop variable
into a float vector in :data:`SCALAR_STATE` order and writes it back,
gathers the per-run constants in :data:`CONSTS` order (so both kernel
layouts compute with *exactly* the same coefficient bits as the
reference chain), flattens the biquad cascades, and defines the
structural key of a platform's loop.  The lane layout hands the vectors
to its kernel one lane at a time; the lockstep layout fills one column
per lane of ``(S, B)`` / ``(C, B)`` matrices.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..common.exceptions import ConfigurationError
from ..common.fixedpoint import QFormat


def fmt_spec(fmt: Optional[QFormat]) -> Optional[Tuple]:
    """Hashable structural key of a QFormat quantisation site."""
    if fmt is None:
        return None
    return (fmt.lsb, fmt.min_value / fmt.lsb, fmt.max_value / fmt.lsb,
            fmt.rounding, fmt.overflow)


def loop_structure(platform) -> Tuple:
    """Structural key of a platform's conditioning loop.

    Loop topology, output/quadrature filter section counts and the
    :func:`fmt_spec` of the ten quantisation sites, read from the live
    blocks (not the configs) because that is what the engines quantise
    with.  Platforms with equal keys run the same loop body: the
    compiled engine builds its kernel plan on it, and lanes of one plan
    can share a lockstep fleet.
    """
    conditioner = platform.conditioner
    drive_loop = conditioner.drive_loop
    sense = conditioner.sense_chain
    return (
        bool(conditioner.config.closed_loop),
        len(sense.output_filter.sections),
        len(sense.quadrature_filter.sections),
        fmt_spec(drive_loop.pll.nco.output_format),
        fmt_spec(drive_loop.agc.config.output_format),
        fmt_spec(drive_loop.config.output_format),
        fmt_spec(sense.demodulator.in_phase.output_format),
        fmt_spec(sense.quadrature_cancel.output_format),
        fmt_spec(sense.output_filter.sections[0].output_format),
        fmt_spec(sense.quadrature_filter.sections[0].output_format),
        fmt_spec(sense.offset_comp.output_format),
        fmt_spec(sense.temperature_comp.output_format),
        fmt_spec(sense.scaler.output_format),
    )


def sensor_temperature_plan(sensor, temp_arr: np.ndarray, tmin: float,
                            tmax: float) -> List[Tuple[int, dict]]:
    """Plan the sensor's temperature-dependent coefficient updates.

    Replays the per-sample ``_apply_temperature`` hysteresis (recompute
    only when the temperature moved by >= 0.05 °C since the last applied
    value) over the whole temperature trace up front; ``tmin`` and
    ``tmax`` are the trace's extremes.  Returns a list of
    ``(sample_index, coefficients)`` events; the sensor object is mutated
    exactly as the reference loop would have left it (propagators retuned
    at each event, ``_temperature_c`` at the final trace value).

    Because the retune happens eagerly, an exception raised later in a
    compiled run (e.g. a sensitivity correction reaching zero) leaves
    the sensor's temperature state ahead of the sample where the run
    aborted; treat the platform as needing a
    ``reset()`` after an engine error, as with any half-completed run.

    The first entry always describes the coefficients valid from sample
    0, whether or not sample 0 triggers a recompute.
    """

    def snapshot() -> dict:
        p = sensor.primary
        s = sensor.secondary
        return {
            "pa": (p._a11, p._a12, p._a21, p._a22, p._b1, p._b2),
            "sa": (s._a11, s._a12, s._a21, s._a22, s._b1, s._b2),
            "pickoff_gain": sensor._pickoff_gain,
            "offset_rate_dps": sensor._offset_rate_dps,
            "primary_res_hz": p.resonance_hz,
        }

    temps = temp_arr.tolist()
    last = sensor._last_temp_applied
    events: List[Tuple[int, dict]] = []
    if last is not None and temp_arr.size:
        if abs(tmin - last) < 0.05 and abs(tmax - last) < 0.05:
            # the whole run stays inside the hysteresis band: no retune
            sensor._temperature_c = temps[-1]
            return [(0, snapshot())]
    initial = snapshot()
    i = 0
    while i < len(temps):
        if last is not None:
            # jump to the next sample that leaves the hysteresis band
            moved = np.flatnonzero(np.abs(temp_arr[i:] - last) >= 0.05)
            if not moved.size:
                break
            i += int(moved[0])
        sensor._apply_temperature(temps[i])
        last = temps[i]
        events.append((i, snapshot()))
        i += 1
    if not events or events[0][0] != 0:
        # samples before the first recompute use the pre-run coefficients
        events.insert(0, (0, initial))
    if temps:
        sensor._temperature_c = temps[-1]
    return events


#: Slot order of the packed scalar-state vector shared by both kernel
#: layouts (one column per lane in a lockstep fleet).  The names are
#: the engines' loop locals; :func:`pack_scalar_state` fills the vector
#: from the platform objects and :func:`unpack_scalar_state` writes it
#: back, so every loop variable is loaded and stored here and nowhere
#: else.  Booleans travel as 0.0/1.0, counters as exact small floats,
#: the start-up sequencer state as its enum value and ``st_ready`` uses
#: -1.0 for "not ready yet" (the reference sequencer never reports
#: sample 0).
SCALAR_STATE = (
    "x", "xv", "y", "yv",
    "pga_p_state", "pga_s_state", "aa_p1", "aa_p2", "aa_s1", "aa_s2",
    "overload",
    "pd_state", "amp_state", "pll_integ", "phase_err", "amplitude",
    "lock_counter", "locked", "sin_ref", "cos_ref", "nco_phase", "tuning",
    "agc_integ", "agc_gain", "agc_err",
    "di_state", "dq_state", "rate_channel", "quad_channel",
    "rate_dps_val", "rate_word",
    "reb_state", "reb_integ", "reb_cmd", "reb_residual",
    "st_state", "st_count", "st_settle", "st_ready", "st_failed",
    "drive_v", "control_v", "drive_word", "control_word", "rdac_held",
)

STATE_INDEX = {name: index for index, name in enumerate(SCALAR_STATE)}


def pack_scalar_state(platform) -> np.ndarray:
    """Pack one platform's mutable loop state into a float64 vector.

    Reads every attribute the loop carries from sample to sample (see
    :data:`SCALAR_STATE` for the slot order), so a kernel operating on
    the vector starts from bit-identical state.
    """
    frontend = platform.frontend
    conditioner = platform.conditioner
    sensor = platform.sensor
    drive_loop = conditioner.drive_loop
    pll = drive_loop.pll
    nco = pll.nco
    agc = drive_loop.agc
    sense = conditioner.sense_chain
    rebalance = conditioner.rebalance
    startup = conditioner.startup
    ready = startup._ready_sample
    values = {
        "x": sensor.primary._displacement,
        "xv": sensor.primary._velocity,
        "y": sensor.secondary._displacement,
        "yv": sensor.secondary._velocity,
        "pga_p_state": frontend.primary_pga._state,
        "pga_s_state": frontend.secondary_pga._state,
        "aa_p1": frontend.primary_antialias._first._state,
        "aa_p2": frontend.primary_antialias._second._state,
        "aa_s1": frontend.secondary_antialias._first._state,
        "aa_s2": frontend.secondary_antialias._second._state,
        "overload": 1.0 if frontend._overload else 0.0,
        "pd_state": pll._pd_filter._state,
        "amp_state": pll._amp_filter._state,
        "pll_integ": pll._integrator,
        "phase_err": pll._phase_error,
        "amplitude": pll._amplitude,
        "lock_counter": float(pll._lock_counter),
        "locked": 1.0 if pll._locked else 0.0,
        "sin_ref": pll._sin_ref,
        "cos_ref": pll._cos_ref,
        "nco_phase": nco._phase,
        "tuning": nco._tuning_hz,
        "agc_integ": agc._integrator,
        "agc_gain": agc._gain,
        "agc_err": agc._error,
        "di_state": sense.demodulator.in_phase._filter._state,
        "dq_state": sense.demodulator.quadrature._filter._state,
        "rate_channel": sense._rate_channel,
        "quad_channel": sense._quadrature_channel,
        "rate_dps_val": sense._rate_dps,
        "rate_word": sense._rate_word,
        "reb_state": rebalance._demod._filter._state,
        "reb_integ": rebalance._integrator,
        "reb_cmd": rebalance._command,
        "reb_residual": rebalance._residual,
        "st_state": float(startup._state.value),
        "st_count": float(startup._sample_count),
        "st_settle": float(startup._settle_counter),
        "st_ready": -1.0 if ready is None else float(ready),
        "st_failed": 1.0 if startup._failed else 0.0,
        "drive_v": platform._drive_v,
        "control_v": platform._control_v,
        "drive_word": drive_loop._drive_word,
        "control_word": conditioner._control_word,
        "rdac_held": frontend.rate_output_dac._held_output,
    }
    return np.array([float(values[name]) for name in SCALAR_STATE])


def unpack_scalar_state(platform, state: np.ndarray) -> None:
    """Write a packed state vector back into the platform objects.

    :func:`finish_run` adds the biquad states, the sample counter, the
    platform clock and the monitor-register refresh.  Values are
    converted back to the plain Python types the reference chain keeps
    (floats, ints, bools, :class:`~repro.gyro.startup.StartupState`), so
    platforms that ran a fast engine pickle/digest identically to ones
    that ran the reference loop.
    """
    from ..gyro.startup import StartupState
    g = {name: state[index] for index, name in enumerate(SCALAR_STATE)}
    frontend = platform.frontend
    conditioner = platform.conditioner
    sensor = platform.sensor
    drive_loop = conditioner.drive_loop
    pll = drive_loop.pll
    nco = pll.nco
    agc = drive_loop.agc
    sense = conditioner.sense_chain
    rebalance = conditioner.rebalance
    startup = conditioner.startup

    sensor.primary._displacement = float(g["x"])
    sensor.primary._velocity = float(g["xv"])
    sensor.secondary._displacement = float(g["y"])
    sensor.secondary._velocity = float(g["yv"])

    frontend.primary_pga._state = float(g["pga_p_state"])
    frontend.secondary_pga._state = float(g["pga_s_state"])
    frontend.primary_antialias._first._state = float(g["aa_p1"])
    frontend.primary_antialias._second._state = float(g["aa_p2"])
    frontend.secondary_antialias._first._state = float(g["aa_s1"])
    frontend.secondary_antialias._second._state = float(g["aa_s2"])
    overload = bool(g["overload"] != 0.0)
    frontend._overload = overload
    frontend.trim.register("afe_status").hw_write_field(
        "overload", int(overload))
    frontend.drive_dac._held_output = float(g["drive_v"])
    frontend.control_dac._held_output = float(g["control_v"])
    frontend.rate_output_dac._held_output = float(g["rdac_held"])

    pll._pd_filter._state = float(g["pd_state"])
    pll._amp_filter._state = float(g["amp_state"])
    pll._integrator = float(g["pll_integ"])
    pll._phase_error = float(g["phase_err"])
    pll._amplitude = float(g["amplitude"])
    pll._lock_counter = int(g["lock_counter"])
    pll._locked = bool(g["locked"] != 0.0)
    pll._sin_ref = float(g["sin_ref"])
    pll._cos_ref = float(g["cos_ref"])
    nco._phase = float(g["nco_phase"])
    nco._tuning_hz = float(g["tuning"])
    agc._integrator = float(g["agc_integ"])
    agc._gain = float(g["agc_gain"])
    agc._error = float(g["agc_err"])
    drive_loop._drive_word = float(g["drive_word"])

    sense.demodulator.in_phase._filter._state = float(g["di_state"])
    sense.demodulator.quadrature._filter._state = float(g["dq_state"])
    sense._rate_channel = float(g["rate_channel"])
    sense._quadrature_channel = float(g["quad_channel"])
    sense._rate_dps = float(g["rate_dps_val"])
    sense._rate_word = float(g["rate_word"])

    rebalance._demod._filter._state = float(g["reb_state"])
    rebalance._integrator = float(g["reb_integ"])
    rebalance._command = float(g["reb_cmd"])
    rebalance._residual = float(g["reb_residual"])

    startup._state = StartupState(int(g["st_state"]))
    startup._sample_count = int(g["st_count"])
    startup._settle_counter = int(g["st_settle"])
    ready = g["st_ready"]
    startup._ready_sample = None if ready < 0.0 else int(ready)
    startup._failed = bool(g["st_failed"] != 0.0)

    conditioner._control_word = float(g["control_word"])
    platform._drive_v = float(g["drive_v"])
    platform._control_v = float(g["control_v"])


def biquad_arrays(iir_filter) -> Tuple[np.ndarray, np.ndarray]:
    """Flat ``(coefs, z)`` arrays of an IirFilter for the fast engines.

    ``coefs`` is ``[b0, b1, b2, a1, a2]`` per section, flattened;
    ``z`` is ``[z1, z2]`` per section, flattened (the engine updates it;
    push it back with :func:`writeback_biquad_arrays`).
    """
    coefs = []
    z = []
    for section in iir_filter.sections:
        coefs.extend((section.b[0], section.b[1], section.b[2],
                      section.a[1], section.a[2]))
        z.extend((section._z1, section._z2))
    return np.array(coefs, dtype=float), np.array(z, dtype=float)


def writeback_biquad_arrays(iir_filter, z: np.ndarray) -> None:
    """Push an engine's flat biquad states back into the filter."""
    for index, section in enumerate(iir_filter.sections):
        section._z1 = float(z[2 * index])
        section._z2 = float(z[2 * index + 1])


#: Slot order of the per-run scalar-constant vector (one column per lane
#: in a lockstep fleet).  The names are the engines' constant locals;
#: :func:`gather_consts` fills it.
CONSTS = (
    "kq", "kc", "s_drive_gain", "s_control_gain",
    "ca_gain", "ca_rail", "trim_p", "trim_s",
    "pga_p_gain", "pga_s_gain", "pga_p_alpha", "pga_s_alpha",
    "pga_p_rail", "pga_s_rail", "aa_alpha", "aa_alpha_s",
    "adc_p_kinl", "adc_p_vref", "adc_p_lsb", "adc_p_cmin", "adc_p_cmax",
    "adc_s_kinl", "adc_s_vref", "adc_s_lsb", "adc_s_cmin", "adc_s_cmax",
    "ov_thr",
    "ddac_lsb", "ddac_vref", "ddac_min", "ddac_max",
    "cdac_lsb", "cdac_vref", "cdac_min", "cdac_max",
    "rdac_lsb", "rdac_vref", "rdac_min", "rdac_max",
    "mid", "out_span", "trim_out",
    "pd_alpha", "amp_alpha", "pll_thr", "pll_kp", "pll_ki",
    "lock_thr", "lock_count", "tuning_range", "nco_fc", "nco_fs",
    "agc_target", "agc_kp", "agc_ki", "agc_min", "agc_max", "settle_thr",
    "demod_alpha", "qc_coeff", "off_comp", "scale_dps", "full_scale",
    "reb_alpha", "reb_kp", "reb_ki", "reb_limit",
    "wd_samples", "settle_samples", "dt", "start_time",
)


#: Constants the generated kernels divide by.
DIVISORS = ("adc_p_vref", "adc_p_lsb", "adc_s_vref", "adc_s_lsb",
            "ddac_lsb", "cdac_lsb", "rdac_lsb", "rdac_vref", "nco_fs",
            "full_scale")
_DIVISOR_INDEX = [CONSTS.index(name) for name in DIVISORS]


def check_divisors(consts: np.ndarray) -> None:
    """Raise :class:`ConfigurationError` unless every divisor is usable.

    ``consts`` is a :func:`gather_consts` vector, or a ``(C, B)`` matrix
    with one such column per lane.  A zero or non-finite divisor would
    make Python raise mid-loop but C carry on, so every engine checks
    them once per run, before the first sample.
    """
    values = consts[_DIVISOR_INDEX]
    if not (np.isfinite(values).all() and values.all()):
        names = [name for name, row in zip(DIVISORS, values)
                 if not (np.isfinite(row).all() and np.all(row))]
        raise ConfigurationError(
            f"the loop divides by {', '.join(names)}, which must be finite "
            "and non-zero")


def gather_consts(platform, start_time: float) -> np.ndarray:
    """Pack the run's scalar constants in :data:`CONSTS` order."""
    cfg = platform.config
    sensor = platform.sensor
    frontend = platform.frontend
    conditioner = platform.conditioner
    drive_loop = conditioner.drive_loop
    pll = drive_loop.pll
    nco = pll.nco
    agc = drive_loop.agc
    sense = conditioner.sense_chain
    rebalance = conditioner.rebalance
    startup = conditioner.startup

    p = sensor.params
    ca_cfg = frontend.primary_charge_amp.config
    pga_p = frontend.primary_pga
    pga_s = frontend.secondary_pga
    adc_p = frontend.primary_adc
    adc_s = frontend.secondary_adc
    ddac = frontend.drive_dac
    cdac = frontend.control_dac
    rdac = frontend.rate_output_dac
    pll_cfg = pll.config
    agc_cfg = agc.config
    reb_cfg = rebalance.config
    st_cfg = startup.config
    values = {
        "kq": (p.quadrature_error_dps * math.pi / 180.0)
              * 2.0 * p.angular_gain,
        "kc": -2.0 * p.angular_gain,
        "s_drive_gain": p.drive_gain_ms2_per_v,
        "s_control_gain": p.control_gain_ms2_per_v,
        "ca_gain": ca_cfg.transimpedance_gain,
        "ca_rail": ca_cfg.rail_v,
        "trim_p": frontend._offset_trim_primary_v,
        "trim_s": frontend._offset_trim_secondary_v,
        "pga_p_gain": pga_p.gain,
        "pga_s_gain": pga_s.gain,
        "pga_p_alpha": pga_p._alpha,
        "pga_s_alpha": pga_s._alpha,
        "pga_p_rail": pga_p.config.rail_v,
        "pga_s_rail": pga_s.config.rail_v,
        "aa_alpha": frontend.primary_antialias._first._alpha,
        "aa_alpha_s": frontend.secondary_antialias._first._alpha,
        "adc_p_kinl": adc_p.config.inl_lsb * adc_p._lsb,
        "adc_p_vref": adc_p.config.vref,
        "adc_p_lsb": adc_p._lsb,
        "adc_p_cmin": float(adc_p._code_min),
        "adc_p_cmax": float(adc_p._code_max),
        "adc_s_kinl": adc_s.config.inl_lsb * adc_s._lsb,
        "adc_s_vref": adc_s.config.vref,
        "adc_s_lsb": adc_s._lsb,
        "adc_s_cmin": float(adc_s._code_min),
        "adc_s_cmax": float(adc_s._code_max),
        "ov_thr": 0.98 * frontend.config.adc.vref,
        "ddac_lsb": ddac._lsb,
        "ddac_vref": ddac.config.vref,
        "ddac_min": ddac._out_min,
        "ddac_max": ddac._out_max,
        "cdac_lsb": cdac._lsb,
        "cdac_vref": cdac.config.vref,
        "cdac_min": cdac._out_min,
        "cdac_max": cdac._out_max,
        "rdac_lsb": rdac._lsb,
        "rdac_vref": rdac.config.vref,
        "rdac_min": rdac._out_min,
        "rdac_max": rdac._out_max,
        "mid": frontend.supply.config.nominal_v / 2.0,
        "out_span": frontend.config.rate_output_sensitivity_v_per_fs,
        "trim_out": frontend._offset_trim_output_v,
        "pd_alpha": pll._pd_filter.alpha,
        "amp_alpha": pll._amp_filter.alpha,
        "pll_thr": pll_cfg.amplitude_threshold,
        "pll_kp": pll_cfg.kp,
        "pll_ki": pll_cfg.ki,
        "lock_thr": pll_cfg.lock_threshold,
        "lock_count": float(pll_cfg.lock_count),
        "tuning_range": nco.tuning_range_hz,
        "nco_fc": nco.center_frequency_hz,
        "nco_fs": nco.sample_rate_hz,
        "agc_target": agc_cfg.target_amplitude,
        "agc_kp": agc_cfg.kp,
        "agc_ki": agc_cfg.ki,
        "agc_min": agc_cfg.min_gain,
        "agc_max": agc_cfg.max_gain,
        "settle_thr": agc_cfg.settle_threshold,
        "demod_alpha": sense.demodulator.in_phase._filter.alpha,
        "qc_coeff": sense.quadrature_cancel.coefficient,
        "off_comp": sense.offset_comp.offset,
        "scale_dps": sense.scaler.config.scale_dps_per_unit,
        "full_scale": sense.scaler.config.full_scale_dps,
        "reb_alpha": rebalance._demod._filter.alpha,
        "reb_kp": reb_cfg.kp,
        "reb_ki": reb_cfg.ki,
        "reb_limit": reb_cfg.max_command,
        "wd_samples": st_cfg.watchdog_time_s * st_cfg.sample_rate_hz,
        "settle_samples": st_cfg.settling_time_s * st_cfg.sample_rate_hz,
        "dt": 1.0 / cfg.sample_rate_hz,
        "start_time": start_time,
    }
    return np.array([float(values[name]) for name in CONSTS])


def finish_run(platform, state: np.ndarray, out_z: np.ndarray,
               quad_z: np.ndarray, n: int, start_time: float) -> None:
    """Store a finished ``n``-sample run back into the platform.

    The end-of-run writeback both kernel layouts share: the packed loop
    state, the output/quadrature biquad states, the conditioner's sample
    counter and monitor registers (refreshed once, at the end of the
    run) and the platform clock.
    """
    conditioner = platform.conditioner
    sense = conditioner.sense_chain
    unpack_scalar_state(platform, state)
    writeback_biquad_arrays(sense.output_filter, out_z)
    writeback_biquad_arrays(sense.quadrature_filter, quad_z)
    conditioner._sample_count += n
    conditioner._refresh_registers()
    platform._time_s = start_time + n * (1.0 / platform.config.sample_rate_hz)
