"""Shared state/coefficient plumbing for the compiled engine.

The generated kernels flatten the object-oriented reference chain
(sensor → AFE → DSP → DACs) into plain locals.  This module is the one
place that knows how.  :data:`STATE_TABLE` lists every loop variable
once: its slot in the packed state vector, the platform attributes that
hold it and its kind, which says how it converts to a float and back.
:data:`CONSTS` lists every per-run constant once, as an expression over
platform attributes in the reference chain's operation order, so every
kernel computes with *exactly* the same coefficient bits as the
reference chain.  :func:`pack_scalar_state`, :func:`unpack_scalar_state`
and :func:`gather_consts` are generated from the tables once, at import,
as the lane kernels are generated from their plan, with each object on
an attribute path looked up once per call.  :data:`AFE_DRIFT` names the
front-end devices whose offsets and gains drift with temperature and
:data:`NOISE_SOURCES` the loop's noise sources.  The module also
flattens the biquad cascades and defines the structural key of a
platform's loop.  Each kernel call gets one platform's values.
"""

from __future__ import annotations

import ast
import math
from operator import attrgetter
from typing import Optional, Tuple

import numpy as np

from ..common.exceptions import ConfigurationError
from ..common.fixedpoint import QFormat
from ..gyro.startup import StartupState


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
    compiled engine builds its kernel plan on it.
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
                            tmax: float) -> Tuple[np.ndarray, np.ndarray]:
    """Plan the sensor's temperature-dependent coefficient updates.

    Replays the per-sample ``_apply_temperature`` hysteresis (recompute
    only when the temperature moved by >= 0.05 °C since the last applied
    value) over the whole (non-empty) temperature trace up front; ``tmin``
    and ``tmax`` are the trace's extremes.  Returns the kernels' event
    arrays: the sample index of each event (int64) and, flattened, its 15
    coefficients (primary and secondary propagator ``a11, a12, a21, a22,
    b1, b2``, pick-off gain, offset rate, primary resonance).  The sensor
    object is mutated exactly as the reference loop would have left it
    (propagators retuned at each event, ``_temperature_c`` at the final
    trace value).

    Because the retune happens eagerly, an exception raised later in a
    compiled run (e.g. a sensitivity correction reaching zero) leaves
    the sensor's temperature state ahead of the sample where the run
    aborted; treat the platform as needing a
    ``reset()`` after an engine error, as with any half-completed run.

    The first event always describes the coefficients valid from sample
    0, whether or not sample 0 triggers a recompute.
    """

    def snapshot() -> tuple:
        p = sensor.primary
        s = sensor.secondary
        return (p._a11, p._a12, p._a21, p._a22, p._b1, p._b2,
                s._a11, s._a12, s._a21, s._a22, s._b1, s._b2,
                sensor._pickoff_gain, sensor._offset_rate_dps,
                p.resonance_hz)

    last = sensor._last_temp_applied
    if last is not None and abs(tmin - last) < 0.05 \
            and abs(tmax - last) < 0.05:
        # the whole run stays inside the hysteresis band: no retune
        events = [(0, snapshot())]
    else:
        temps = temp_arr.tolist()
        initial = snapshot()
        events = []
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
            # samples before the first recompute use the pre-run
            # coefficients
            events.insert(0, (0, initial))
    sensor._temperature_c = float(temp_arr[-1])
    return (np.array([i for i, _ in events], dtype=np.int64),
            np.array([coefs for _, coefs in events]).reshape(-1))


#: Slot kinds of the packed state vector: how a slot's Python value
#: (``float``, ``int`` counter, ``bool`` flag, start-up state, ready
#: sample or ``None``) becomes a float and back, as ``(pack, unpack)``
#: expression templates over ``{0}``.  Counters travel as exact small
#: floats and ``st_ready`` uses -1.0 for "not ready yet" (the reference
#: sequencer never reports sample 0).
SLOT_KINDS = {
    "float": ("float({0})", "{0}"),
    "count": ("float({0})", "int({0})"),
    "flag": ("(1.0 if {0} else 0.0)", "({0} != 0.0)"),
    "state": ("float({0}.value)", "StartupState(int({0}))"),
    "ready": ("(-1.0 if {0} is None else float({0}))",
              "(None if {0} < 0.0 else int({0}))"),
}

#: The packed state vector of a kernel run, one ``(name, kind, *paths)``
#: entry per slot in slot order.  The name is the kernels' loop local,
#: the kind a :data:`SLOT_KINDS` key and the paths the platform
#: attributes that hold the value: :func:`pack_scalar_state` reads the
#: first and :func:`unpack_scalar_state` writes every one, so every loop
#: variable is loaded and stored here and nowhere else.
STATE_TABLE = (
    ("x", "float", "sensor.primary._displacement"),
    ("xv", "float", "sensor.primary._velocity"),
    ("y", "float", "sensor.secondary._displacement"),
    ("yv", "float", "sensor.secondary._velocity"),
    ("pga_p_state", "float", "frontend.primary_pga._state"),
    ("pga_s_state", "float", "frontend.secondary_pga._state"),
    ("aa_p1", "float", "frontend.primary_antialias._first._state"),
    ("aa_p2", "float", "frontend.primary_antialias._second._state"),
    ("aa_s1", "float", "frontend.secondary_antialias._first._state"),
    ("aa_s2", "float", "frontend.secondary_antialias._second._state"),
    ("overload", "flag", "frontend._overload"),
    ("pd_state", "float", "conditioner.drive_loop.pll._pd_filter._state"),
    ("amp_state", "float", "conditioner.drive_loop.pll._amp_filter._state"),
    ("pll_integ", "float", "conditioner.drive_loop.pll._integrator"),
    ("phase_err", "float", "conditioner.drive_loop.pll._phase_error"),
    ("amplitude", "float", "conditioner.drive_loop.pll._amplitude"),
    ("lock_counter", "count", "conditioner.drive_loop.pll._lock_counter"),
    ("locked", "flag", "conditioner.drive_loop.pll._locked"),
    ("sin_ref", "float", "conditioner.drive_loop.pll._sin_ref"),
    ("cos_ref", "float", "conditioner.drive_loop.pll._cos_ref"),
    ("nco_phase", "float", "conditioner.drive_loop.pll.nco._phase"),
    ("tuning", "float", "conditioner.drive_loop.pll.nco._tuning_hz"),
    ("agc_integ", "float", "conditioner.drive_loop.agc._integrator"),
    ("agc_gain", "float", "conditioner.drive_loop.agc._gain"),
    ("agc_err", "float", "conditioner.drive_loop.agc._error"),
    ("di_state", "float",
     "conditioner.sense_chain.demodulator.in_phase._filter._state"),
    ("dq_state", "float",
     "conditioner.sense_chain.demodulator.quadrature._filter._state"),
    ("rate_channel", "float", "conditioner.sense_chain._rate_channel"),
    ("quad_channel", "float", "conditioner.sense_chain._quadrature_channel"),
    ("rate_dps_val", "float", "conditioner.sense_chain._rate_dps"),
    ("rate_word", "float", "conditioner.sense_chain._rate_word"),
    ("reb_state", "float", "conditioner.rebalance._demod._filter._state"),
    ("reb_integ", "float", "conditioner.rebalance._integrator"),
    ("reb_cmd", "float", "conditioner.rebalance._command"),
    ("reb_residual", "float", "conditioner.rebalance._residual"),
    ("st_state", "state", "conditioner.startup._state"),
    ("st_count", "count", "conditioner.startup._sample_count"),
    ("st_settle", "count", "conditioner.startup._settle_counter"),
    ("st_ready", "ready", "conditioner.startup._ready_sample"),
    ("st_failed", "flag", "conditioner.startup._failed"),
    ("drive_v", "float", "_drive_v", "frontend.drive_dac._held_output"),
    ("control_v", "float", "_control_v", "frontend.control_dac._held_output"),
    ("drive_word", "float", "conditioner.drive_loop._drive_word"),
    ("control_word", "float", "conditioner._control_word"),
    ("rdac_held", "float", "frontend.rate_output_dac._held_output"),
)


class _Owners:
    """Locals for the objects on platform attribute paths, in definition
    order: a generated function looks each one up once per call, as a
    hand-written one would."""

    def __init__(self):
        self._names: dict = {}

    def owner(self, path: str) -> str:
        """The local holding the object at ``path`` (``p`` for "")."""
        if not path:
            return "p"
        if path not in self._names:
            parent, _, attr = path.rpartition(".")
            reference = f"{self.owner(parent)}.{attr}"
            self._names[path] = (f"o{len(self._names)}", reference)
        return self._names[path][0]

    def attribute(self, path: str) -> str:
        """``path`` read through its owner's local."""
        parent, _, attr = path.rpartition(".")
        return f"{self.owner(parent)}.{attr}"

    def lines(self) -> list:
        """The statements that define the locals."""
        return [f"    {name} = {ref}" for name, ref in self._names.values()]


def _state_functions() -> Tuple:
    """``(values, unpack)`` generated from :data:`STATE_TABLE`.

    ``values(platform)`` returns the packed state as a list of floats;
    ``unpack(platform, values)`` writes one back and mirrors the overload
    flag into the ``afe_status`` register."""
    owners = _Owners()
    values = [SLOT_KINDS[kind][0].format(owners.attribute(paths[0]))
              for _, kind, *paths in STATE_TABLE]
    pack = (["def values(p):", '    """Packed state of p, as floats."""']
            + owners.lines() + ["    return [" + ", ".join(values) + "]"])
    owners = _Owners()
    stores = [f"    {owners.attribute(path)} = "
              + SLOT_KINDS[kind][1].format(f"s[{index}]")
              for index, (_, kind, *paths) in enumerate(STATE_TABLE)
              for path in paths]
    stores.append(f"    {owners.owner('frontend.trim')}"
                  ".register('afe_status').hw_write_field('overload', "
                  f"int({owners.attribute('frontend._overload')}))")
    unpack = ["def unpack(p, s):"] + owners.lines() + stores
    namespace = {"StartupState": StartupState}
    exec(compile("\n".join(pack + unpack) + "\n", "<repro-state-table>",
                 "exec"), namespace)
    return namespace["values"], namespace["unpack"]


state_values, _unpack = _state_functions()


def pack_scalar_state(platform) -> np.ndarray:
    """One platform's mutable loop state as a float64 vector.

    Reads every attribute the loop carries from sample to sample, in
    :data:`STATE_TABLE` order, so a kernel operating on the vector starts
    from bit-identical state.
    """
    return np.array(state_values(platform))


def unpack_scalar_state(platform, state: np.ndarray) -> None:
    """Write a packed state vector back into the platform objects.

    :func:`finish_run` adds the biquad states, the sample counter, the
    platform clock and the monitor-register refresh.  Each slot goes back
    as the Python type a fresh platform holds (``float``, ``int``,
    ``bool``, :class:`~repro.gyro.startup.StartupState` or ``None``), so
    the packed state round-trips exactly.  A platform is not byte-equal
    to one that ran the same samples on the reference loop: that loop
    leaves NumPy scalars in about 20 attributes, and only it advances
    the demodulator mixers' last carrier value (``_reference``).
    """
    _unpack(platform, state.tolist())


def biquad_values(iir_filter) -> Tuple[list, list]:
    """Flat ``(coefs, z)`` lists of an IirFilter for the compiled engine:
    ``[b0, b1, b2, a1, a2]`` and ``[z1, z2]`` per section."""
    coefs = []
    z = []
    for section in iir_filter.sections:
        coefs.extend((float(section.b[0]), float(section.b[1]),
                      float(section.b[2]), float(section.a[1]),
                      float(section.a[2])))
        z.extend((float(section._z1), float(section._z2)))
    return coefs, z


#: The front-end devices whose offsets drift with temperature, as
#: ``(kernel prefix, config path, 25 °C offset field, gain drifts too)``.
#: At a temperature ``T`` the kernels compute, as the devices do,
#: ``offset + offset_tc_v_per_c * dT`` and, for the converters,
#: ``(1 + gain_error) * (1 + gain_tc_ppm_per_c * 1e-6 * dT)`` with
#: ``dT = T - 25``, from the constants :data:`CONSTS` derives.
AFE_DRIFT = (
    ("ca_p", "frontend.primary_charge_amp.config", "offset_v", False),
    ("ca_s", "frontend.secondary_charge_amp.config", "offset_v", False),
    ("pga_p", "frontend.primary_pga.config", "offset_v", False),
    ("pga_s", "frontend.secondary_pga.config", "offset_v", False),
    ("adc_p", "frontend.primary_adc.config", "offset_error_v", True),
    ("adc_s", "frontend.secondary_adc.config", "offset_error_v", True),
    ("ddac", "frontend.drive_dac.config", "offset_error_v", True),
    ("cdac", "frontend.control_dac.config", "offset_error_v", True),
    ("rdac", "frontend.rate_output_dac.config", "offset_error_v", True),
)

#: The loop's noise sources, each a
#: :class:`~repro.common.noise.BufferedGaussianNoise`, as ``(kernel
#: prefix, platform attribute path)`` in the order of the lane kernels'
#: ``noise`` argument (:data:`noise_sources`).
NOISE_SOURCES = (
    ("sens", "sensor._noise"),
    ("ca_p", "frontend.primary_charge_amp._noise"),
    ("ca_s", "frontend.secondary_charge_amp._noise"),
    ("pga_p", "frontend.primary_pga._noise"),
    ("pga_s", "frontend.secondary_pga._noise"),
    ("adc_p", "frontend.primary_adc._noise"),
    ("adc_s", "frontend.secondary_adc._noise"),
)

#: ``noise_sources(platform)``: the tuple of its :data:`NOISE_SOURCES`.
noise_sources = attrgetter(*(path for _, path in NOISE_SOURCES))

#: The per-run scalar constants, one ``(name, expression)`` entry per
#: slot in slot order.  The name is the kernels' constant local; the
#: expression is Python over platform attribute paths (``sensor``,
#: ``frontend``, ``conditioner``, ``config``), ``math`` and the run's
#: ``start_time``, in the reference chain's operation order.
#: :func:`gather_consts` is generated from the table at import.
CONSTS = (
    ("kq", "(sensor.params.quadrature_error_dps * math.pi / 180.0)"
           " * 2.0 * sensor.params.angular_gain"),
    ("kc", "-2.0 * sensor.params.angular_gain"),
    ("s_drive_gain", "sensor.params.drive_gain_ms2_per_v"),
    ("s_control_gain", "sensor.params.control_gain_ms2_per_v"),
    ("ca_gain", "frontend.primary_charge_amp.config.transimpedance_gain"),
    ("ca_rail", "frontend.primary_charge_amp.config.rail_v"),
    ("trim_p", "frontend._offset_trim_primary_v"),
    ("trim_s", "frontend._offset_trim_secondary_v"),
    ("pga_p_gain", "frontend.primary_pga.gain"),
    ("pga_s_gain", "frontend.secondary_pga.gain"),
    ("pga_p_alpha", "frontend.primary_pga._alpha"),
    ("pga_s_alpha", "frontend.secondary_pga._alpha"),
    ("pga_p_rail", "frontend.primary_pga.config.rail_v"),
    ("pga_s_rail", "frontend.secondary_pga.config.rail_v"),
    ("aa_alpha", "frontend.primary_antialias._first._alpha"),
    ("aa_alpha_s", "frontend.secondary_antialias._first._alpha"),
    ("adc_p_kinl",
     "frontend.primary_adc.config.inl_lsb * frontend.primary_adc._lsb"),
    ("adc_p_vref", "frontend.primary_adc.config.vref"),
    ("adc_p_lsb", "frontend.primary_adc._lsb"),
    ("adc_p_cmin", "frontend.primary_adc._code_min"),
    ("adc_p_cmax", "frontend.primary_adc._code_max"),
    ("adc_s_kinl",
     "frontend.secondary_adc.config.inl_lsb * frontend.secondary_adc._lsb"),
    ("adc_s_vref", "frontend.secondary_adc.config.vref"),
    ("adc_s_lsb", "frontend.secondary_adc._lsb"),
    ("adc_s_cmin", "frontend.secondary_adc._code_min"),
    ("adc_s_cmax", "frontend.secondary_adc._code_max"),
    ("ov_thr", "0.98 * frontend.config.adc.vref"),
    ("ddac_lsb", "frontend.drive_dac._lsb"),
    ("ddac_vref", "frontend.drive_dac.config.vref"),
    ("ddac_min", "frontend.drive_dac._out_min"),
    ("ddac_max", "frontend.drive_dac._out_max"),
    ("cdac_lsb", "frontend.control_dac._lsb"),
    ("cdac_vref", "frontend.control_dac.config.vref"),
    ("cdac_min", "frontend.control_dac._out_min"),
    ("cdac_max", "frontend.control_dac._out_max"),
    ("rdac_lsb", "frontend.rate_output_dac._lsb"),
    ("rdac_vref", "frontend.rate_output_dac.config.vref"),
    ("rdac_min", "frontend.rate_output_dac._out_min"),
    ("rdac_max", "frontend.rate_output_dac._out_max"),
    ("mid", "frontend.supply.config.nominal_v / 2.0"),
    ("out_span", "frontend.config.rate_output_sensitivity_v_per_fs"),
    ("trim_out", "frontend._offset_trim_output_v"),
    ("pd_alpha", "conditioner.drive_loop.pll._pd_filter.alpha"),
    ("amp_alpha", "conditioner.drive_loop.pll._amp_filter.alpha"),
    ("pll_thr", "conditioner.drive_loop.pll.config.amplitude_threshold"),
    ("pll_kp", "conditioner.drive_loop.pll.config.kp"),
    ("pll_ki", "conditioner.drive_loop.pll.config.ki"),
    ("lock_thr", "conditioner.drive_loop.pll.config.lock_threshold"),
    ("lock_count", "conditioner.drive_loop.pll.config.lock_count"),
    ("tuning_range", "conditioner.drive_loop.pll.nco.tuning_range_hz"),
    ("nco_fc", "conditioner.drive_loop.pll.nco.center_frequency_hz"),
    ("nco_fs", "conditioner.drive_loop.pll.nco.sample_rate_hz"),
    ("agc_target", "conditioner.drive_loop.agc.config.target_amplitude"),
    ("agc_kp", "conditioner.drive_loop.agc.config.kp"),
    ("agc_ki", "conditioner.drive_loop.agc.config.ki"),
    ("agc_min", "conditioner.drive_loop.agc.config.min_gain"),
    ("agc_max", "conditioner.drive_loop.agc.config.max_gain"),
    ("settle_thr", "conditioner.drive_loop.agc.config.settle_threshold"),
    ("demod_alpha",
     "conditioner.sense_chain.demodulator.in_phase._filter.alpha"),
    ("qc_coeff", "conditioner.sense_chain.quadrature_cancel.coefficient"),
    ("off_comp", "conditioner.sense_chain.offset_comp.offset"),
    ("scale_dps", "conditioner.sense_chain.scaler.config.scale_dps_per_unit"),
    ("full_scale", "conditioner.sense_chain.scaler.config.full_scale_dps"),
    ("reb_alpha", "conditioner.rebalance._demod._filter.alpha"),
    ("reb_kp", "conditioner.rebalance.config.kp"),
    ("reb_ki", "conditioner.rebalance.config.ki"),
    ("reb_limit", "conditioner.rebalance.config.max_command"),
    ("wd_samples", "conditioner.startup.config.watchdog_time_s"
                   " * conditioner.startup.config.sample_rate_hz"),
    ("settle_samples", "conditioner.startup.config.settling_time_s"
                       " * conditioner.startup.config.sample_rate_hz"),
    ("dt", "1.0 / config.sample_rate_hz"),
    ("start_time", "start_time"),
    ("ts_off", "config.temperature_sensor.offset_error_c"),
    ("ts_res", "config.temperature_sensor.resolution_c"),
) + tuple(
    entry for prefix, path, offset, gain in AFE_DRIFT
    for entry in ((f"{prefix}_off0", f"{path}.{offset}"),
                  (f"{prefix}_off_tc", f"{path}.offset_tc_v_per_c"))
    + (((f"{prefix}_gain0", f"1.0 + {path}.gain_error"),
        (f"{prefix}_gain_tc", f"{path}.gain_tc_ppm_per_c * 1e-6"))
       if gain else ())
) + tuple((f"{prefix}_sigma", f"{path}.sigma")
          for prefix, path in NOISE_SOURCES)

#: The :data:`CONSTS` names, in slot order.
CONST_NAMES = tuple(name for name, _ in CONSTS)

#: Constants the generated kernels divide by.
DIVISORS = ("adc_p_vref", "adc_p_lsb", "adc_s_vref", "adc_s_lsb",
            "ddac_lsb", "cdac_lsb", "rdac_lsb", "rdac_vref", "nco_fs",
            "full_scale")
_DIVISOR_INDEX = [CONST_NAMES.index(name) for name in DIVISORS]


def check_divisors(consts: list) -> None:
    """Raise :class:`ConfigurationError` unless every divisor is usable.

    ``consts`` is a :func:`gather_consts` list.  A zero or non-finite
    divisor would make Python raise mid-loop but C carry on, so every
    engine checks them once per run, before the first sample.
    """
    values = [consts[index] for index in _DIVISOR_INDEX]
    if not all(math.isfinite(value) and value for value in values):
        names = [name for name, value in zip(DIVISORS, values)
                 if not (math.isfinite(value) and value)]
        raise ConfigurationError(
            f"the loop divides by {', '.join(names)}, which must be finite "
            "and non-zero")


def _dotted(node) -> Optional[str]:
    """The dotted name an ``ast`` attribute chain spells, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def _gather_function():
    """``gather(platform, start_time)`` generated from :data:`CONSTS`.

    Each expression keeps its operations; each attribute path in it reads
    through an owner local, so every object is looked up once per call.
    """
    owners = _Owners()

    class Paths(ast.NodeTransformer):
        def visit_Attribute(self, node):
            path = _dotted(node)
            if path is None or path.startswith("math."):
                return self.generic_visit(node)
            return ast.parse(owners.attribute(path), mode="eval").body

    values = [ast.unparse(Paths().visit(ast.parse(expression, mode="eval")))
              for _, expression in CONSTS]
    source = (["def gather_consts(p, start_time):",
               '    """The run\'s scalar constants, in CONSTS order: real',
               "    numbers as the platform holds them (Python or NumPy",
               "    floats and ints), which a float64 array holds exactly.",
               '    """']
              + owners.lines() + ["    return [" + ", ".join(values) + "]"])
    namespace = {"math": math}
    exec(compile("\n".join(source) + "\n", "<repro-consts-table>", "exec"),
         namespace)
    return namespace["gather_consts"]


gather_consts = _gather_function()


def finish_run(platform, loop: np.ndarray, n: int, start_time: float) -> None:
    """Store a finished ``n``-sample run back into the platform.

    The end-of-run writeback of a compiled run.  ``loop`` is the packed
    state followed by the output and then the quadrature biquad states
    (:func:`biquad_values` order); the conditioner's sample counter and
    monitor registers (refreshed once, at the end of the run) and the
    platform clock follow.
    """
    conditioner = platform.conditioner
    sense = conditioner.sense_chain
    values = loop.tolist()
    _unpack(platform, values)
    z = iter(values[len(STATE_TABLE):])
    for section in (sense.output_filter.sections
                    + sense.quadrature_filter.sections):
        section._z1 = next(z)
        section._z2 = next(z)
    conditioner._sample_count += n
    conditioner._refresh_registers()
    platform._time_s = start_time + n * (1.0 / platform.config.sample_rate_hz)
