"""Compiled hot-loop engine: kernels generated per platform structure.

The reference chain makes ~15 method calls per sample across the
sensor, AFE, DSP and DAC objects; a hand-flattened loop would still pay
interpreter cost for every sample: closure calls for each fixed-point
quantisation, list iteration over biquad sections, runtime branches on
structurally-constant flags (closed loop, ADC noise/INL presence) and a
modulo per sample for trace decimation.

This module removes all of that by *generating* a kernel specialised to
one platform structure.  :func:`kernel_plan` extracts the structural key
(loop topology, filter orders, the exact fixed-point formats at each of
the ten quantisation sites, noise/INL presence) and
:func:`generate_kernel_source` emits a straight-line Python function for
that key: the whole closed loop, quantisers inlined with their constants
baked as literals, biquad cascades unrolled, dead branches dropped, the
start-up sequencer skipped once it reaches RUNNING and the record point
tracked with a countdown instead of a modulo.

The kernel runs the loop on local floats for one platform, and its one
source serves two backends.  ``"python"`` runs it through
``compile()``/``exec``.  ``"c"`` lowers the same string to C
(:mod:`repro.engine.native`), builds it with the system compiler into an
on-disk cache and calls it through :mod:`ctypes`; a new library must
reproduce the Python kernel bit for bit on the requesting platform's own
stimulus before it is cached (:data:`SELF_CHECK_SAMPLES`).  Python is
the fallback when no compiler is found (:data:`COMPILER`) or a build
fails, so the ``"compiled"`` engine always registers and behaves
identically, only slower.  Every campaign lane runs on its own kernel: a
campaign round is one
:meth:`~repro.scenarios.engines.EngineSpec.run_fleet` call over the
active lanes.

One call path serves both backends.  A run packs its lane into one
float64 lane vector (:func:`_lane_arrays`) and two trace blocks, each
chunk samples its stimulus (rate and temperature) at the run's absolute
sample times into the first two rows of an input block
(:func:`sample_stimulus`, which the reference loop calls too) and plans
two event arrays, and the kernel takes
these six blocks and the platform's noise sources.  Its prelude binds
each array the loop reads to a block or to a literal row of one, as a
``.tolist()`` copy where Python reads it per sample, reads the lane
vector at literal offsets (:func:`_lane_offsets`), so no layout travels
with a call, and draws the chunk's values of each noise source into the
input block's row for it: the Python backend with
:meth:`~repro.common.noise.BufferedGaussianNoise.take`, the C backend
from the source's live NumPy bit generator.  The loop computes the front
end's temperature drift and the compensation factors from each sample's
temperature, again only when that changes.  The vector's head (state and
biquad states) is written back after the last chunk, and the result's
traces are rows of the blocks.

Bit-identity contract: the generated arithmetic replicates the reference
chain operation for operation — same expression order, same rounding
points, same RNG block draws — so traces and end-of-run platform state
are bit-identical to the reference engine on both backends.  The DSP
monitor registers are refreshed once, at the end of each run, where the
reference loop also refreshes them (it does so every
``status_update_interval`` samples as well, which nothing reads during
a run).  All mutable loop state travels
through the state table of :mod:`repro.engine.state`
(:func:`~repro.engine.state.state_values` /
:func:`~repro.engine.state.finish_run`), which is what lets faults,
safe-mode latching and early-exit lane retirement behave identically:
the campaign layer keeps mutating the platform objects between chunks
and every chunk re-packs from them.

Formats with ``overflow="error"`` cannot raise from inside a generated
kernel, so :func:`run_compiled` transparently delegates such platforms
to the reference loop (same results, same exception behaviour).

Bad input raises the same exception types on every engine and backend:
a non-finite rate or temperature stimulus raises
:class:`~repro.common.exceptions.ConfigurationError` before the chunk
that holds it runs, a sensitivity correction of zero raises it at the
sample that reaches it, and a loop driven out of range (a huge rate,
say) raises :class:`~repro.common.exceptions.SimulationError`, from the
Python kernel where it fails and from the C kernel at the end of the
chunk (a rounding of a value that is not finite, an overflowing power,
or non-finite loop state).  Either comes before any state is written
back to the platform, and after both backends have drawn the chunk's
noise.  AFE drift and compensation products overflow to inf silently,
as Python floats do, but an overflowing power raises, as
``float ** int`` does.

Runs are processed in time chunks of :data:`CHUNK_SAMPLES` samples.
"""

from __future__ import annotations

import copy
import itertools
import math
import numbers
import pickle
import warnings
from typing import Optional, Tuple

import numpy as np

from ..common.exceptions import ConfigurationError, SimulationError
from ..platform.result import GyroSimulationResult
from ..sensors.environment import ConstantProfile, Environment
from .state import (
    AFE_DRIFT,
    CONST_NAMES,
    NOISE_SOURCES,
    STATE_TABLE,
    biquad_values,
    check_divisors,
    finish_run,
    gather_consts,
    loop_structure,
    noise_sources,
    sensor_temperature_plan,
    state_values,
)
from . import native

#: The C compiler command (:func:`repro.engine.native.find_compiler`:
#: ``$CC``, else Python's build ``CC``), or ``None`` when none is found.
COMPILER = native.find_compiler()
#: Backend of the lane kernels: ``"c"`` with a compiler, else ``"python"``.
BACKEND = "c" if COMPILER else "python"

#: Samples per kernel invocation.
CHUNK_SAMPLES = 16384

#: Lane-samples a campaign round needs before its C lanes run on
#: threads (:func:`settle_lanes`).  On a 2-vCPU Xeon a threaded round
#: of up to ~36,000 lane-samples ran 0-11 % slower than a serial one
#: (the second thread waited some 10 ms for a CPU of its own), one of
#: ~48,000 went either way, and one of 64,000 or more ran 17-42 %
#: faster.
MIN_THREADED_SAMPLES = 1 << 16

#: Samples of the requesting platform's own stimulus on which a newly
#: built C kernel must match the Python kernel bit for bit (traces at
#: every sample, packed state and biquad states) before it is cached.
SELF_CHECK_SAMPLES = 4096

_PI = repr(math.pi)
_TWO_PI = repr(2.0 * math.pi)

#: Rows of a lane's chunk input block that :func:`sample_stimulus`
#: fills: the stimulus, from which the loop derives the front end's drift
#: and the compensation.  One row per noise source follows, which the
#: kernel fills with that source's values for the chunk.
_LANE_INPUTS = ("rate", "temp")

#: Rows of the float and bool trace blocks, in the order of
#: :meth:`GyroSimulationResult.trace_blocks`.
_FLOAT_TRACES = (
    "time_tr", "rate_tr", "temp_tr", "out_dps_tr", "out_v_tr", "agc_tr",
    "agc_err_tr", "perr_tr", "vco_tr", "pick_tr", "drive_tr",
)
_BOOL_TRACES = ("lock_tr", "run_tr")

#: Arguments of a lane kernel: the scalars, the six blocks — the lane
#: vector (:func:`_lane_offsets`), the event starts and coefficients, the
#: input block (stimulus and noise rows) and the float and bool trace
#: blocks — and the platform's noise sources
#: (:data:`~repro.engine.state.NOISE_SOURCES`).
_SCALARS = ("n0", "nc", "dec", "rec", "record_waveforms")
_BLOCKS = ("lane", "ev_starts", "ev_coefs", "inputs", "floats", "flags")
_ARGUMENTS = _SCALARS + _BLOCKS + ("noise",)

#: What a kernel returns instead of ``rec`` when the sensitivity
#: correction reached zero (the C kernel returns -1 where Python would
#: have raised: a rounding of a value that is not finite, a power that
#: overflows).
_SENSITIVITY_ZERO = -2

_EV_NAMES = ("pa11", "pa12", "pa21", "pa22", "pb1", "pb2",
             "sa11", "sa12", "sa21", "sa22", "sb1", "sb2",
             "pick_gain", "offset_rate", "res_hz")


def kernel_plan(platform) -> Optional[Tuple]:
    """Structural key deciding which specialised kernel a platform needs.

    The :func:`~repro.engine.state.loop_structure`, ADC noise/INL
    presence and the lengths of the temperature-compensation
    polynomials.  Two platforms with the same plan share one generated
    kernel (their differing *values* travel through the consts/state
    vectors).  Returns ``None`` when any quantisation site uses
    ``overflow="error"`` — generated kernels cannot raise, so such runs
    delegate to the reference loop.
    """
    structure = loop_structure(platform)
    for spec in structure[3:]:
        if spec is not None and spec[4] == "error":
            return None
    adc_p = platform.frontend.primary_adc
    adc_s = platform.frontend.secondary_adc
    compensation = platform.conditioner.sense_chain.temperature_comp.config
    return structure + (
        bool(adc_p.config.noise_rms_v),
        bool(adc_s.config.noise_rms_v),
        bool(adc_p.config.inl_lsb * adc_p._lsb),
        bool(adc_s.config.inl_lsb * adc_s._lsb),
        len(compensation.offset_poly),
        len(compensation.sensitivity_poly),
    )


def _lane_offsets(n_out: int, n_quad: int, n_off: int, n_sens: int) -> dict:
    """Where each section of the lane vector starts, in vector order.

    For ``n_out`` output and ``n_quad`` quadrature biquad sections and
    temperature-compensation polynomials of ``n_off`` offset and
    ``n_sens`` sensitivity coefficients: the packed state, two states per
    section of each cascade, the consts, five coefficients per section of
    each cascade and the two polynomials.  The head, up to the consts, is
    the loop state a kernel writes back.
    """
    sizes = {"state": len(STATE_TABLE), "out_z": 2 * n_out,
             "quad_z": 2 * n_quad, "consts": len(CONST_NAMES),
             "out_coefs": 5 * n_out, "quad_coefs": 5 * n_quad,
             "off_poly": n_off, "sens_poly": n_sens}
    return dict(zip(sizes, itertools.accumulate(sizes.values(), initial=0)))


def _clip(target: str, src: str, lo: str, hi: str) -> str:
    """``target = src`` clamped to ``[lo, hi]`` (lower bound checked first)."""
    return f"{target} = {lo} if {src} < {lo} else ({hi} if {src} > {hi} else {src})"


def quantizer_lines(var, spec, indent: int, counter) -> list:
    """Emit the bit-exact inline equivalent of ``var = quantize(var, fmt)``.

    ``spec`` is a :func:`~repro.engine.state.fmt_spec` tuple (``None``
    emits nothing) and ``counter`` a one-element list used to mint
    unique temporaries, so every inlined site assigns fresh names.
    ``floor``/``trunc`` resolve to :mod:`math`.  Exposed at module level so
    tests can lock the generated snippet against
    :func:`repro.common.fixedpoint.quantize` directly.
    """
    if spec is None:
        return []
    lsb, lo, hi, rounding, overflow = spec
    pad = " " * indent
    k = counter[0]
    counter[0] += 1
    s, r = f"_s{k}", f"_r{k}"
    lines = [f"{pad}{s} = {var} / {lsb!r}"]
    if rounding == "nearest":
        lines.append(f"{pad}{r} = floor({s} + 0.5)")
    elif rounding == "floor":
        lines.append(f"{pad}{r} = floor({s})")
    else:  # truncate
        lines.append(f"{pad}{r} = trunc({s})")
    if overflow == "saturate":
        lines.append(pad + _clip(r, r, repr(lo), repr(hi)))
    else:  # wrap ("error" never reaches codegen: kernel_plan -> None)
        span = hi - lo + 1
        lines.append(f"{pad}{r} = (({r} - {lo!r}) % {span!r}) + {lo!r}")
    lines.append(f"{pad}{var} = {r} * {lsb!r}")
    return lines


def generate_kernel_source(plan: Tuple) -> str:
    """Emit the specialised kernel source for one plan.

    One source serves both backends.  Its prelude binds each array the
    loop uses to a block argument or to a literal row of a 2-D one, as a
    ``.tolist()`` copy where the loop reads it per sample, reads the
    state, consts, biquads and compensation polynomials at literal
    offsets of the lane vector (:func:`_lane_offsets`) and draws the
    chunk's values of each noise source the loop adds into that source's
    row of the input block (``draw(noise[k], sigma, inputs[row])``).
    The loop computes the front end's temperature drift from each
    sample's temperature when it changes, and the compensation factors
    when the temperature sensor's reading does.  The Python backend
    ``exec``s the source, drawing with
    :meth:`~repro.common.noise.BufferedGaussianNoise.take`;
    :func:`repro.engine.native.lower` reads the same bindings as pointers
    into the arguments, fills each drawn row with a loop of NumPy's
    ``random_normal`` and skips the local binding of the kernel's
    functions.
    """
    (closed, n_out, n_quad, q_nco, q_agc, q_drive, q_demod, q_qc,
     q_out, q_quad, q_off, q_tc, q_scaler,
     has_p_noise, has_s_noise, has_p_inl, has_s_inl, n_off, n_sens) = plan

    lines = []
    emit = lines.append
    counter = [0]

    def quant(var, spec, indent=8):
        lines.extend(quantizer_lines(var, spec, indent, counter))

    def clip(target, src, lo, hi, indent=8):
        emit(" " * indent + _clip(target, src, lo, hi))

    emit(f"def kernel({', '.join(_ARGUMENTS)}):")

    # ---- prelude: function binding + array access -------------------------
    emit("    floor = _floor; trunc = _trunc")
    emit("    sin = _sin; cos = _cos; rnd = _rnd; draw = _draw")
    for name in ("lane", "ev_starts", "ev_coefs"):
        emit(f"    {name}_r = {name}.tolist()")
    for row, name in enumerate(_LANE_INPUTS):
        emit(f"    {name}_r = inputs[{row}].tolist()")
    for block, rows in (("floats", _FLOAT_TRACES), ("flags", _BOOL_TRACES)):
        for row, name in enumerate(rows):
            emit(f"    {name} = {block}[{row}]")

    # ---- constants and entry state into locals ----------------------------
    at = _lane_offsets(n_out, n_quad, n_off, n_sens)
    for index, name in enumerate(CONST_NAMES, at["consts"]):
        emit(f"    {name} = lane_r[{index}]")
    for k in range(n_off):
        emit(f"    off_poly_{k} = lane_r[{at['off_poly'] + k}]")
    for k in range(n_sens):
        emit(f"    sens_poly_{k} = lane_r[{at['sens_poly'] + k}]")
    for index, (name, kind, *_) in enumerate(STATE_TABLE, at["state"]):
        if name == "overload":
            continue  # recomputed from the final AA states at exit
        if kind == "flag":
            emit(f"    {name} = lane_r[{index}] != 0.0")
        elif name == "st_count":
            emit(f"    st_count0 = lane_r[{index}]")
        else:
            emit(f"    {name} = lane_r[{index}]")
    emit("    st_active = st_state != 4.0")

    # ---- the chunk's noise: every source the loop adds, drawn into its
    # row of the input block (the reference adds ADC noise only when its
    # config has some; a source whose sigma is 0 draws nothing, adds 0.0)
    skipped = {"adc_p": not has_p_noise, "adc_s": not has_s_noise}
    for index, (name, _) in enumerate(NOISE_SOURCES):
        if not skipped.get(name):
            emit(f"    {name}_noise_r = draw(noise[{index}], {name}_sigma,"
                 f" inputs[{len(_LANE_INPUTS) + index}]).tolist()")

    # ---- biquad cascades unrolled into locals -----------------------------
    for prefix, n_sec, coefs, zs in (
            ("o", n_out, at["out_coefs"], at["out_z"]),
            ("q", n_quad, at["quad_coefs"], at["quad_z"])):
        for k in range(n_sec):
            base, zb = coefs + 5 * k, zs + 2 * k
            emit(f"    {prefix}b0_{k} = lane_r[{base}]; "
                 f"{prefix}b1_{k} = lane_r[{base + 1}]; "
                 f"{prefix}b2_{k} = lane_r[{base + 2}]")
            emit(f"    {prefix}a1_{k} = lane_r[{base + 3}]; "
                 f"{prefix}a2_{k} = lane_r[{base + 4}]")
            emit(f"    {prefix}z1_{k} = lane_r[{zb}]; "
                 f"{prefix}z2_{k} = lane_r[{zb + 1}]")

    # ---- sensor temperature events ----------------------------------------
    emit("    ev_n = len(ev_starts_r)")
    emit("    ev_idx = 1")
    emit("    if ev_n > 1:")
    emit("        next_ev = int(ev_starts_r[1])")
    emit("    else:")
    emit("        next_ev = -1")
    for offset, name in enumerate(_EV_NAMES):
        emit(f"    {name} = ev_coefs_r[{offset}]")

    emit("    next_rec = (dec - n0 % dec) % dec")
    emit("    for j in range(nc):")
    emit("        rate_j = rate_r[j]")
    emit("        temp_j = temp_r[j]")

    # the front end's drift and the compensation factors at this sample's
    # temperature, in the reference's operation order; the compensation
    # reads the temperature sensor's quantised value, so its polynomials
    # change only with that reading
    emit("        if j == 0 or temp_j != temp_prev:")
    emit("            temp_prev = temp_j")
    emit("            dt_c = temp_j - 25.0")
    for prefix, _, _, gain in AFE_DRIFT:
        emit(f"            {prefix}_off = {prefix}_off0"
             f" + {prefix}_off_tc * dt_c")
        if gain:
            emit(f"            {prefix}_gain = {prefix}_gain0"
                 f" * (1.0 + {prefix}_gain_tc * dt_c)")
    emit("            ts_read = rnd((temp_j + ts_off) / ts_res)")
    emit("            if j == 0 or ts_read != ts_read_prev:")
    emit("                ts_read_prev = ts_read")
    emit("                dtm = ts_read * ts_res - 25.0")
    emit("                tcomp_off = 0.0")
    for k in range(n_off):
        emit(f"                tcomp_off = tcomp_off"
             f" + off_poly_{k} * dtm ** {k}")
    emit("                tcomp_sens = 0.0")
    for k in range(n_sens):
        emit(f"                tcomp_sens = tcomp_sens"
             f" + sens_poly_{k} * dtm ** {k + 1}")
    emit("                tcomp_sens = 1.0 + tcomp_sens")

    emit("        if j == next_ev:")
    emit("            _b = ev_idx * 15")
    for offset, name in enumerate(_EV_NAMES):
        emit(f"            {name} = ev_coefs_r[_b + {offset}]"
             if offset else f"            {name} = ev_coefs_r[_b]")
    emit("            ev_idx += 1")
    emit("            if ev_idx < ev_n:")
    emit("                next_ev = int(ev_starts_r[ev_idx])")
    emit("            else:")
    emit("                next_ev = -1")

    # MEMS sensor (exact ZOH resonator modes + Coriolis coupling)
    emit("        drive_accel = s_drive_gain * drive_v")
    emit("        x_new = pa11 * x + pa12 * xv + pb1 * drive_accel")
    emit("        xv = pa21 * x + pa22 * xv + pb2 * drive_accel")
    emit("        x = x_new")
    emit(f"        eff = (rate_j + offset_rate + sens_noise_r[j])"
         f" * {_PI} / 180.0")
    emit("        coriolis = kc * eff * xv")
    emit(f"        quad = kq * x * 2.0 * {_PI} * res_hz")
    emit("        sacc = coriolis + quad + s_control_gain * control_v")
    emit("        y_new = sa11 * y + sa12 * yv + sb1 * sacc")
    emit("        yv = sa21 * y + sa22 * yv + sb2 * sacc")
    emit("        y = y_new")

    # AFE acquisition: charge amp -> PGA -> anti-alias -> SAR ADC
    for ch, pos, aa_alpha in (("p", "x", "aa_alpha"),
                              ("s", "y", "aa_alpha_s")):
        emit(f"        out = pick_gain * {pos} * ca_gain + ca_{ch}_off"
             f" + ca_{ch}_noise_r[j]")
        clip(f"{ch}1", "out", "-ca_rail", "ca_rail")
        emit(f"        ideal = ({ch}1 + trim_{ch} + pga_{ch}_off"
             f" + pga_{ch}_noise_r[j]) * pga_{ch}_gain")
        emit(f"        pga_{ch}_state = pga_{ch}_state"
             f" + pga_{ch}_alpha * (ideal - pga_{ch}_state)")
        clip(f"{ch}2", f"pga_{ch}_state", f"-pga_{ch}_rail",
             f"pga_{ch}_rail")
        emit(f"        aa_{ch}1 = aa_{ch}1 + {aa_alpha} * ({ch}2 - aa_{ch}1)")
        emit(f"        aa_{ch}2 = aa_{ch}2 + {aa_alpha} * (aa_{ch}1 - aa_{ch}2)")
    for ch, has_inl, has_noise in (("p", has_p_inl, has_p_noise),
                                   ("s", has_s_inl, has_s_noise)):
        emit(f"        d = aa_{ch}2 * adc_{ch}_gain + adc_{ch}_off")
        if has_inl:
            emit(f"        nrm = d / adc_{ch}_vref")
            clip("nrm", "nrm", "-1.0", "1.0")
            emit(f"        d += adc_{ch}_kinl * (1.0 - nrm * nrm)")
        if has_noise:
            emit(f"        d += adc_{ch}_noise_r[j]")
        emit(f"        code = floor(d / adc_{ch}_lsb + 0.5)")
        clip("code", "code", f"adc_{ch}_cmin", f"adc_{ch}_cmax")
        emit(f"        {ch}_norm = code * adc_{ch}_lsb / adc_{ch}_vref")

    # drive PLL: phase detector -> PI -> NCO
    emit("        pd_state = pd_state + pd_alpha * (p_norm * cos_ref"
         " - pd_state)")
    emit("        amp_state = amp_state + amp_alpha * (p_norm * sin_ref"
         " - amp_state)")
    emit("        amplitude = 2.0 * amp_state")
    emit("        if amplitude < 0.0:")
    emit("            amplitude = 0.0")
    emit("        if amplitude > pll_thr:")
    emit("            err = 2.0 * pd_state / amplitude")
    emit("            pll_integ += pll_ki * err")
    emit("            if pll_integ > tuning_range:")
    emit("                pll_integ = tuning_range")
    emit("            elif pll_integ < -tuning_range:")
    emit("                pll_integ = -tuning_range")
    emit("            tuning = pll_kp * err + pll_integ")
    emit("            if tuning > tuning_range:")
    emit("                tuning = tuning_range")
    emit("            elif tuning < -tuning_range:")
    emit("                tuning = -tuning_range")
    emit("            phase_err = err")
    emit("            if (err if err >= 0.0 else -err) < lock_thr:")
    emit("                lock_counter = lock_counter + 1.0"
         " if lock_counter < lock_count else lock_count")
    emit("            else:")
    emit("                lock_counter = 0.0")
    emit("        else:")
    emit("            tuning = 0.0")
    emit("            phase_err = 0.0")
    emit("            lock_counter = 0.0")
    emit("        locked = lock_counter >= lock_count")
    emit(f"        nco_phase = (nco_phase + {_TWO_PI} * (nco_fc + tuning)"
         f" / nco_fs) % {_TWO_PI}")
    emit("        sin_ref = sin(nco_phase)")
    emit("        cos_ref = cos(nco_phase)")
    quant("sin_ref", q_nco)
    quant("cos_ref", q_nco)

    # AGC
    emit("        agc_err = agc_target - amplitude")
    emit("        agc_integ = agc_integ + agc_ki * agc_err")
    clip("agc_integ", "agc_integ", "agc_min", "agc_max")
    emit("        agc_gain = agc_kp * agc_err + agc_integ")
    clip("agc_gain", "agc_gain", "agc_min", "agc_max")
    quant("agc_gain", q_agc)
    emit("        drive_word = agc_gain * cos_ref")
    quant("drive_word", q_drive)

    # sense chain: I/Q demod -> quadrature cancel -> filters -> comp
    emit("        di_state = di_state + demod_alpha * (s_norm * cos_ref"
         " - di_state)")
    emit("        i_chan = 2.0 * di_state")
    emit("        dq_state = dq_state + demod_alpha * (s_norm * sin_ref"
         " - dq_state)")
    emit("        q_chan = 2.0 * dq_state")
    quant("i_chan", q_demod)
    quant("q_chan", q_demod)
    emit("        raw = i_chan - qc_coeff * q_chan")
    quant("raw", q_qc)
    for prefix, n_sec, q_sec, src, dst in (
            ("o", n_out, q_out, "raw", "rate_channel"),
            ("q", n_quad, q_quad, "q_chan", "quad_channel")):
        emit(f"        v = {src}")
        for k in range(n_sec):
            emit(f"        yy = {prefix}b0_{k} * v + {prefix}z1_{k}")
            emit(f"        {prefix}z1_{k} = {prefix}b1_{k} * v"
                 f" - {prefix}a1_{k} * yy + {prefix}z2_{k}")
            emit(f"        {prefix}z2_{k} = {prefix}b2_{k} * v"
                 f" - {prefix}a2_{k} * yy")
            quant("yy", q_sec)
            emit("        v = yy")
        emit(f"        {dst} = v")
    emit("        comp = rate_channel - off_comp")
    quant("comp", q_off)
    emit("        if tcomp_sens == 0.0:")
    emit(f"            return {_SENSITIVITY_ZERO}")
    emit("        comp = (comp - tcomp_off) / tcomp_sens")
    quant("comp", q_tc)
    emit("        rate_dps_val = comp * scale_dps")
    emit("        word = rate_dps_val / full_scale")
    clip("word", "word", "-1.0", "1.0")
    quant("word", q_scaler)
    emit("        rate_word = word")

    # force rebalance (closed-loop configuration) — structural branch
    if closed:
        emit("        reb_state = reb_state + reb_alpha * (s_norm * cos_ref"
             " - reb_state)")
        emit("        reb_residual = 2.0 * reb_state")
        emit("        reb_integ = reb_integ + reb_ki * reb_residual")
        clip("reb_integ", "reb_integ", "-reb_limit", "reb_limit")
        emit("        reb_cmd = reb_kp * reb_residual + reb_integ")
        clip("reb_cmd", "reb_cmd", "-reb_limit", "reb_limit")
        emit("        control_word = -reb_cmd * cos_ref")
        emit("        out_dps = reb_cmd * scale_dps")
        emit("        out_word = out_dps / full_scale")
        clip("out_word", "out_word", "-1.0", "1.0")
        quant("out_word", q_scaler)
    else:
        emit("        control_word = 0.0")
        emit("        out_dps = rate_dps_val")
        emit("        out_word = rate_word")

    # start-up sequencer (skipped once RUNNING: every branch is then a
    # no-op in the reference chain; the count still advances via the
    # st_count0 + nc write-back at exit)
    emit("        if st_active:")
    emit("            cur = st_count0 + (j + 1.0)")
    emit("            just_failed = False")
    emit("            if not st_failed:")
    emit("                if cur > wd_samples:")
    emit("                    st_failed = True")
    emit("                    just_failed = True")
    emit("            if not just_failed:")
    emit("                if st_state == 0.0:")
    emit("                    st_state = 1.0")
    emit("                elif st_state == 1.0:")
    emit("                    if locked:")
    emit("                        st_state = 2.0")
    emit("                elif st_state == 2.0:")
    emit("                    if agc_err < settle_thr and"
         " agc_err > -settle_thr:")
    emit("                        st_state = 3.0")
    emit("                        st_settle = 0.0")
    emit("                    elif not locked:")
    emit("                        st_state = 1.0")
    emit("                elif st_state == 3.0:")
    emit("                    if locked and (agc_err < settle_thr"
         " and agc_err > -settle_thr):")
    emit("                        st_settle = st_settle + 1.0")
    emit("                    else:")
    emit("                        st_settle = 0.0")
    emit("                    if st_settle >= settle_samples:")
    emit("                        st_state = 4.0")
    emit("                        st_ready = cur")
    emit("                        st_active = False")

    # drive / control DACs (open loop: the control word is 0.0, which
    # quantises to code 0)
    clip("val", "drive_word", "-1.0", "1.0")
    emit("        qd = rnd(val * ddac_vref / ddac_lsb) * ddac_lsb")
    emit("        out = qd * ddac_gain + ddac_off")
    clip("drive_v", "out", "ddac_min", "ddac_max")
    if closed:
        clip("val", "control_word", "-1.0", "1.0")
        emit("        qd = rnd(val * cdac_vref / cdac_lsb) * cdac_lsb")
        emit("        out = qd * cdac_gain + cdac_off")
    else:
        emit("        out = 0.0 * cdac_gain + cdac_off")
    clip("control_v", "out", "cdac_min", "cdac_max")

    # trace recording (decimated; countdown instead of a per-sample %)
    emit("        if j == next_rec:")
    clip("clipped", "out_word", "-1.0", "1.0", 12)
    emit("            target = (mid + clipped * out_span + trim_out)"
         " / rdac_vref")
    clip("val", "target", "0.0", "1.0", 12)
    emit("            qd = rnd(val * rdac_vref / rdac_lsb) * rdac_lsb")
    emit("            out = qd * rdac_gain + rdac_off")
    clip("rdac_held", "out", "rdac_min", "rdac_max", 12)
    emit("            i = n0 + j")
    emit("            time_tr[rec] = start_time + i * dt")
    emit("            rate_tr[rec] = rate_j")
    emit("            temp_tr[rec] = temp_j")
    emit("            out_dps_tr[rec] = out_dps")
    emit("            out_v_tr[rec] = rdac_held")
    emit("            agc_tr[rec] = agc_gain")
    emit("            agc_err_tr[rec] = agc_err")
    emit("            perr_tr[rec] = phase_err")
    emit("            vco_tr[rec] = pll_integ")
    emit("            lock_tr[rec] = locked")
    emit("            run_tr[rec] = st_state == 4.0")
    emit("            if record_waveforms:")
    emit("                pick_tr[rec] = p_norm")
    emit("                drive_tr[rec] = drive_word")
    emit("            rec += 1")
    emit("            next_rec += dec")

    # ---- write the final state back into the lane vector's head -----------
    for index, (name, kind, *_) in enumerate(STATE_TABLE, at["state"]):
        if name == "overload":
            emit(f"    lane[{index}] = 1.0 if (aa_p2 >= ov_thr"
                 " or -aa_p2 >= ov_thr or aa_s2 >= ov_thr"
                 " or -aa_s2 >= ov_thr) else 0.0")
        elif kind == "flag":
            emit(f"    lane[{index}] = 1.0 if {name} else 0.0")
        elif name == "st_count":
            emit(f"    lane[{index}] = st_count0 + nc")
        else:
            emit(f"    lane[{index}] = {name}")
    for prefix, zs, n_sec in (("o", at["out_z"], n_out),
                              ("q", at["quad_z"], n_quad)):
        for k in range(n_sec):
            emit(f"    lane[{zs + 2 * k}] = {prefix}z1_{k}")
            emit(f"    lane[{zs + 2 * k + 1}] = {prefix}z2_{k}")
    emit("    return rec")
    emit("")
    return "\n".join(lines)


_KERNELS: dict = {}


def _draw(source, sigma: float, out: np.ndarray) -> np.ndarray:
    """The Python kernel's ``draw``: fills ``out`` with the next values of
    a noise source, drawn with its :meth:`take`, and returns it.
    ``sigma`` is the source's own (a const read from it); C draws each
    value with it."""
    out[:] = source.take(out.size)
    return out


#: Functions a generated kernel calls.  Its prelude binds them to locals,
#: which Python reads faster than globals; the C lowering skips that.
_FUNCTIONS = {"_floor": math.floor, "_trunc": math.trunc,
              "_sin": math.sin, "_cos": math.cos, "_rnd": round,
              "_draw": _draw}

#: For the C lowering: the loop names it keeps as integers and booleans
#: (everything else is a double), the non-double arguments and the 2-D
#: blocks.
_INT_NAMES = ("j", "i", "rec", "ev_idx", "ev_n", "next_ev", "next_rec", "_b")
_BOOL_NAMES = ("locked", "st_failed", "st_active", "just_failed")
_BLOCK_TYPES = {"ev_starts": "int", "flags": "bool", "noise": "stream"}
_MATRICES = ("inputs", "floats", "flags")


def compiled_backend() -> str:
    """Name of the lane-kernel backend in use: ``"c"`` or ``"python"``."""
    return BACKEND


def backend_info() -> dict:
    """Provenance record for benchmark artifacts and diagnostics."""
    return {"backend": compiled_backend(),
            "compiler": COMPILER[0] if COMPILER else None,
            "cache_dir": str(native.cache_dir())}


def _python_kernel(plan: Tuple):
    """The ``exec``-compiled kernel of one plan (cached)."""
    key = (plan, "python")
    kernel = _KERNELS.get(key)
    if kernel is None:
        namespace = dict(_FUNCTIONS)
        exec(compile(generate_kernel_source(plan),
                     "<repro-compiled-kernel>", "exec"), namespace)
        kernel = _KERNELS[key] = namespace["kernel"]
    return kernel


def _native_kernel(plan: Tuple, platform, environment):
    """The C lane kernel of one plan, or the Python one if C fails.

    A lowering, build or self-check failure warns once and returns the
    Python kernel, which the caller then keeps for the plan.
    """
    try:
        c_source, signature = native.lower(
            generate_kernel_source(plan), _SCALARS, _INT_NAMES, _BOOL_NAMES,
            _BLOCK_TYPES, _MATRICES)
        return native.load_or_build(
            c_source, COMPILER, lambda lib: native.bind(lib, signature),
            lambda candidate: _self_check(plan, candidate, platform,
                                          environment))
    except (native.LoweringError, native.BuildError, OSError) as exc:
        warnings.warn(f"compiled engine: no C kernel for this plan, running "
                      f"it on the Python backend ({exc})", RuntimeWarning,
                      stacklevel=4)
        return _python_kernel(plan)


def _compile_kernel(plan: Tuple, backend: Optional[str] = None,
                    platform=None, environment=None):
    """The specialised kernel for one plan, cached per process.

    The one entry point that adds kernels to the cache.  A C lane kernel
    comes from the on-disk library cache or from a fresh build, which
    must first reproduce the Python kernel on ``platform``'s own
    ``environment`` (:func:`_self_check`), so the first request for a
    plan on the C backend needs both.  Whichever kernel that request
    settles on serves the plan for the rest of the process.
    """
    backend = backend or compiled_backend()
    if backend != "c":
        return _python_kernel(plan)
    key = (plan, "c")
    fn = _KERNELS.get(key)
    if fn is None:
        if platform is None or environment is None:
            raise ValueError("the first request for a C lane kernel needs "
                             "the platform and environment to self-check "
                             "it on")
        fn = _KERNELS[key] = _native_kernel(plan, platform, environment)
    return fn


def settle_lanes(platforms, environments, durations_s) -> bool:
    """Ready a campaign round's lanes to run on threads; whether they may.

    They may when the round holds at least :data:`MIN_THREADED_SAMPLES`
    lane-samples, every lane's temperature is a
    :class:`~repro.sensors.environment.ConstantProfile` of a real level
    and every lane's kernel is a C library, whose call releases the GIL.
    Such a lane retunes its sensor at most once, at its first sample,
    wherever the lane stands in its scenario.  This settles each
    distinct plan (a first request builds and self-checks it) and
    memoises each lane's propagators for its temperature
    (:meth:`~repro.sensors.gyro.VibratingRingGyro.prefetch_propagators`),
    so no lane thread reaches the compiler or SciPy.  A plan whose first
    request raises leaves the round serial, so the lane raises it in
    lane order.
    """
    samples = sum(int(round(duration_s * platform.config.sample_rate_hz))
                  for platform, duration_s in zip(platforms, durations_s))
    if samples < MIN_THREADED_SAMPLES:
        return False
    levels = []
    for environment in environments:
        profile = environment.temperature_c
        if not (isinstance(profile, ConstantProfile)
                and isinstance(profile.level, numbers.Real)):
            return False
        levels.append(float(profile.level))
    kernels = {}
    for platform, environment in zip(platforms, environments):
        plan = kernel_plan(platform)
        if plan is None:
            return False
        if plan not in kernels:
            try:
                kernels[plan] = _compile_kernel(plan, platform=platform,
                                                environment=environment)
            except ConfigurationError:
                return False
        if not hasattr(kernels[plan], "library"):
            return False
    for platform, level in zip(platforms, levels):
        platform.sensor.prefetch_propagators(level)
    return True


def _self_check(plan: Tuple, candidate, platform, environment) -> bool:
    """Whether ``candidate`` matches the Python kernel bit for bit.

    Both kernels run :data:`SELF_CHECK_SAMPLES` samples of ``platform``'s
    own stimulus, each on its own copy of the platform (so the
    platform's noise generators do not advance), recording every sample
    with waveforms, and must leave the same loop state, traces and noise
    generator states.  When the Python kernel rejects that stimulus (a
    non-finite profile, say) the check runs on a still environment
    instead.  Raises :class:`~repro.engine.native.BuildError` when the
    platform cannot be copied or the Python kernel rejects both stimuli.
    """
    n = SELF_CHECK_SAMPLES
    for stimulus in (environment, Environment.still()):
        outputs = []
        for kernel in (_python_kernel(plan), candidate):
            probe = _probe_copy(platform)
            lane, loop = _lane_arrays(probe)
            traces = GyroSimulationResult.trace_blocks(n + 1)
            try:
                _run_lane_chunk(kernel, probe, stimulus, 0, n, 1, 0, True,
                                lane, loop, traces)
            except (ConfigurationError, SimulationError):
                if kernel is candidate:
                    return False
                break  # the stimulus, not the candidate, is at fault
            generators = [source.bit_generator().state
                          for source in noise_sources(probe)]
            outputs.append(((loop, *traces), generators))
        else:
            (arrays, generators), (c_arrays, c_generators) = outputs
            return generators == c_generators and all(
                a.tobytes() == b.tobytes() for a, b in zip(arrays, c_arrays))
    raise native.BuildError("the Python kernel rejects every self-check "
                            "stimulus on this platform")


def _probe_copy(platform):
    """An independent copy of ``platform`` to self-check a kernel on.

    Pickled, like a campaign lane; deep-copied when it does not pickle
    (a lambda register hook, say).
    """
    try:
        return pickle.loads(pickle.dumps(platform))
    except (pickle.PicklingError, TypeError, AttributeError):
        pass
    try:
        return copy.deepcopy(platform)
    except (TypeError, AttributeError, copy.Error) as exc:
        raise native.BuildError(
            f"cannot copy the platform to self-check on: {exc}") from exc


def sample_stimulus(environment, t: np.ndarray,
                    inputs: np.ndarray) -> Tuple[float, float]:
    """Sample a chunk's stimulus into ``inputs``; the temperature extremes.

    The one way both engines read a stimulus: ``inputs[0]`` and
    ``inputs[1]`` (rows of ``len(t)`` columns) receive the rate and the
    temperature at the times ``t``.  Raises :class:`ConfigurationError`
    if either is not finite.
    """
    inputs[0], inputs[1] = environment.sample(t)
    rate, temp = inputs[0], inputs[1]
    # the extremes flag a non-finite temperature, bound the sensor
    # reading below and spare the sensor plan its own pass
    tmin, tmax = float(temp.min()), float(temp.max())
    for name, finite, profile in (
            ("rate", np.isfinite(rate).all(), environment.rate_dps),
            ("temperature", math.isfinite(tmin) and math.isfinite(tmax),
             environment.temperature_c)):
        if not finite:
            raise ConfigurationError(
                f"{name} profile {profile!r} is not finite in the chunk "
                f"starting at t = {t[0]:g} s")
    return tmin, tmax


def _lane_arrays(platform) -> Tuple[np.ndarray, np.ndarray]:
    """A lane's kernel vector and its loop-state head, a view of it.

    The vector holds its sections where :func:`_lane_offsets` says; the
    head is the packed state and the biquad states, which the kernel
    writes back.  Raises :class:`ConfigurationError` if a constant the
    kernel divides by is zero or not finite.
    """
    sense = platform.conditioner.sense_chain
    consts = gather_consts(platform, platform._time_s)
    check_divisors(consts)
    out_coefs, out_z = biquad_values(sense.output_filter)
    quad_coefs, quad_z = biquad_values(sense.quadrature_filter)
    compensation = sense.temperature_comp.config
    off_poly = list(compensation.offset_poly)
    sens_poly = list(compensation.sensitivity_poly)
    lane = np.array(state_values(platform) + out_z + quad_z + consts
                    + out_coefs + quad_coefs + off_poly + sens_poly,
                    dtype=np.float64)
    head = _lane_offsets(len(out_z) // 2, len(quad_z) // 2, len(off_poly),
                         len(sens_poly))["consts"]
    return lane, lane[:head]


def _run_lane_chunk(kernel, platform, environment, n0: int, nc: int,
                    dec: int, rec: int, record_waveforms: bool,
                    lane: np.ndarray, loop: np.ndarray, traces,
                    first_sample: int = 0) -> int:
    """Fill one chunk's inputs and run it on a lane kernel; returns ``rec``.

    The chunk is samples ``n0`` to ``n0 + nc`` of the run, which reads
    its stimulus at the absolute sample times ``(first_sample + n0 + j)
    * dt`` (:func:`sample_stimulus`) and retunes the lane's sensor over
    it exactly as the reference loop would
    (:func:`~repro.engine.state.sensor_temperature_plan`, whose event
    arrays the kernel takes).  ``lane`` and its head ``loop`` come from
    :func:`_lane_arrays`; the kernel takes them, the chunk's event and
    input blocks, the trace blocks and the platform's noise sources in
    one call on either backend.  A non-finite stimulus, a temperature
    the sensor rejects and a sensitivity correction of zero raise
    :class:`ConfigurationError`, as the reference does.  A kernel
    ``ValueError``/``OverflowError``/``ZeroDivisionError`` (the Python
    backend failing mid-chunk), a return of -1 (the C backend having
    rounded a value that is not finite, or overflowed a power) and
    non-finite loop state (the C backend carrying on) raise
    :class:`SimulationError`.  Both come before anything is written back.
    """
    first = first_sample + n0
    t = np.arange(first, first + nc) * (1.0 / platform.config.sample_rate_hz)
    inputs = np.empty((len(_LANE_INPUTS) + len(NOISE_SOURCES), nc))
    try:
        tmin, tmax = sample_stimulus(environment, t, inputs)
        events = sensor_temperature_plan(platform.sensor, inputs[1], tmin,
                                         tmax)
        rec = kernel(n0, nc, dec, rec, record_waveforms, lane, *events,
                     inputs, *traces, noise_sources(platform))
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise SimulationError(
            f"the loop failed in the chunk starting at t = {t[0]:g} s: "
            f"{exc}") from exc
    if rec == _SENSITIVITY_ZERO:
        raise ConfigurationError("sensitivity correction factor reached zero")
    if rec < 0:
        raise SimulationError(
            f"the loop failed in the chunk starting at t = {t[0]:g} s: it "
            "rounded a value that is not finite or overflowed a power")
    if not np.isfinite(loop).all():
        raise SimulationError(
            f"the loop state left the finite range in the chunk starting "
            f"at t = {t[0]:g} s")
    return rec


def run_compiled(platform, environment, duration_s: float,
                 record_waveforms: bool = False,
                 first_sample: int = 0) -> GyroSimulationResult:
    """Run the platform co-simulation on the compiled engine.

    Drop-in replacement for the reference loop of
    :meth:`GyroPlatform.run` (validation and reset are handled by the
    caller) with the same result and end-of-run platform state, bit for
    bit.  The run reads ``environment`` from its sample ``first_sample``
    on (a campaign lane's position in its scenario).  Platforms whose
    fixed-point formats use ``overflow="error"`` are delegated to the
    reference loop (generated kernels cannot raise overflow errors).
    """
    plan = kernel_plan(platform)
    if plan is None:
        return platform._run_reference(environment, duration_s,
                                       record_waveforms, first_sample)
    fs = platform.config.sample_rate_hz
    n = int(round(duration_s * fs))
    dec = platform.config.record_decimation
    start_time = platform._time_s

    lane, loop = _lane_arrays(platform)
    kernel = _compile_kernel(plan, platform=platform,
                             environment=environment)
    traces = GyroSimulationResult.trace_blocks(n // dec + 1)
    rec = 0
    chunk = CHUNK_SAMPLES
    for n0 in range(0, n, chunk):
        rec = _run_lane_chunk(kernel, platform, environment, n0,
                              min(chunk, n - n0), dec, rec,
                              record_waveforms, lane, loop, traces,
                              first_sample)

    finish_run(platform, loop, n, start_time)
    return GyroSimulationResult.from_trace_blocks(
        traces, rec, record_waveforms, sample_rate_hz=fs / dec,
        turn_on_time_s=platform.conditioner.startup.turn_on_time_s)
