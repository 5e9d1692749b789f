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

The kernel runs the loop on local floats for one platform, with two
backends.  ``"c"`` lowers the source variant that indexes the ndarrays
directly to C (:mod:`repro.engine.native`), builds it with the system
compiler into an on-disk cache and calls it through :mod:`ctypes`; a new
library must reproduce the Python kernel bit for bit on the requesting
platform's own stimulus before it is cached (:data:`SELF_CHECK_SAMPLES`).
``"python"`` runs the source through ``compile()``/``exec`` after a
``.tolist()`` prelude that moves the per-sample arrays into Python
floats.  It is the fallback when no compiler is found
(:data:`COMPILER`) or a build fails, so the ``"compiled"`` engine always
registers and behaves identically, only slower.  Every campaign lane
runs on its own kernel: a campaign round is one
:meth:`~repro.scenarios.engines.EngineSpec.run_fleet` call over the
active lanes.

Bit-identity contract: the generated arithmetic replicates the reference
chain operation for operation — same expression order, same rounding
points, same RNG block draws — so traces and end-of-run platform state
are bit-identical to the reference engine on both backends.  The DSP
monitor registers are refreshed once at the end of each run instead of
every ``status_update_interval`` samples.  All mutable loop state travels
through the packed vectors of :mod:`repro.engine.state`
(:func:`~repro.engine.state.pack_scalar_state` /
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
that holds it runs, and a loop driven out of range (a huge rate, say)
raises :class:`~repro.common.exceptions.SimulationError`, from the
Python kernel where it fails and from the C kernel at the end of the
chunk, before any state is written back to the platform.

Runs are processed in time chunks of :data:`CHUNK_SAMPLES` samples.
"""

from __future__ import annotations

import copy
import math
import pickle
import warnings
from typing import List, Optional, Tuple

import numpy as np

from ..common.exceptions import ConfigurationError, SimulationError
from ..platform.result import GyroSimulationResult
from ..sensors.environment import Environment
from .state import (
    CONSTS,
    SCALAR_STATE,
    STATE_INDEX,
    biquad_arrays,
    check_divisors,
    finish_run,
    gather_consts,
    loop_structure,
    pack_scalar_state,
    sensor_temperature_plan,
)
from . import native

#: The C compiler command (:func:`repro.engine.native.find_compiler`:
#: ``$CC``, else Python's build ``CC``), or ``None`` when none is found.
COMPILER = native.find_compiler()
#: Backend of the lane kernels: ``"c"`` with a compiler, else ``"python"``.
BACKEND = "c" if COMPILER else "python"

#: Samples per kernel invocation.
CHUNK_SAMPLES = 16384

#: Samples of the requesting platform's own stimulus on which a newly
#: built C kernel must match the Python kernel bit for bit (traces at
#: every sample, packed state and biquad states) before it is cached.
SELF_CHECK_SAMPLES = 4096

_PI = repr(math.pi)
_TWO_PI = repr(2.0 * math.pi)

#: Per-sample inputs of one lane over a chunk, as filled by
#: :func:`_fill_lane_inputs`.
_LANE_INPUTS = (
    "rate", "temp", "sens_noise", "ca_p_off", "ca_s_off",
    "ca_p_noise", "ca_s_noise", "pga_p_off", "pga_s_off", "pga_p_noise", "pga_s_noise",
    "adc_p_gain", "adc_p_off", "adc_p_noise",
    "adc_s_gain", "adc_s_off", "adc_s_noise",
    "ddac_gain", "ddac_off", "cdac_gain", "cdac_off",
    "rdac_gain", "rdac_off", "tcomp_off", "tcomp_sens",
)

_TRACES = (
    "time_tr", "rate_tr", "temp_tr", "out_dps_tr", "out_v_tr", "agc_tr",
    "agc_err_tr", "perr_tr", "vco_tr", "lock_tr", "run_tr",
    "pick_tr", "drive_tr",
)

_HEAD_ARGS = (
    "n0", "nc", "dec", "rec", "record_waveforms", "state", "consts",
    "out_coefs", "out_z", "quad_coefs", "quad_z",
    "ev_starts", "ev_coefs",
)

#: Arrays the Python backend converts to lists up front
#: (per-sample reads on Python floats are several times faster than on
#: NumPy scalars).  The write-back arrays (state/out_z/quad_z/traces)
#: and the record-point-only arrays (temp, rdac_gain, rdac_off) stay
#: ndarrays.
_HOT_ARRAYS = (
    "consts", "state", "out_coefs", "out_z", "quad_coefs", "quad_z",
    "ev_starts", "ev_coefs", "rate", "sens_noise", "ca_p_off", "ca_s_off",
    "ca_p_noise", "ca_s_noise", "pga_p_off", "pga_s_off", "pga_p_noise", "pga_s_noise",
    "adc_p_gain", "adc_p_off", "adc_s_gain", "adc_s_off",
    "ddac_gain", "ddac_off", "cdac_gain", "cdac_off",
    "tcomp_off", "tcomp_sens",
)

#: Argument order of a generated kernel.
_KERNEL_ARGS = _HEAD_ARGS + _LANE_INPUTS + _TRACES

_EV_NAMES = ("pa11", "pa12", "pa21", "pa22", "pb1", "pb2",
             "sa11", "sa12", "sa21", "sa22", "sb1", "sb2",
             "pick_gain", "offset_rate", "res_hz")


def kernel_plan(platform) -> Optional[Tuple]:
    """Structural key deciding which specialised kernel a platform needs.

    The :func:`~repro.engine.state.loop_structure` plus ADC noise/INL
    presence.  Two platforms with the same plan share one generated
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
    return structure + (
        bool(adc_p.config.noise_rms_v),
        bool(adc_s.config.noise_rms_v),
        bool(adc_p.config.inl_lsb * adc_p._lsb),
        bool(adc_s.config.inl_lsb * adc_s._lsb),
    )


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


def generate_kernel_source(plan: Tuple, backend: str) -> str:
    """Emit the specialised kernel source for one plan and backend.

    The two backends differ only in the array-access prelude: the
    ``"python"`` variant reads per-sample data from ``.tolist()`` copies
    while ``"c"`` indexes the ndarrays directly and is then lowered to C
    by :func:`repro.engine.native.lower`.
    """
    if backend not in ("python", "c"):
        raise ConfigurationError(f"unknown kernel backend {backend!r}")
    (closed, n_out, n_quad, q_nco, q_agc, q_drive, q_demod, q_qc,
     q_out, q_quad, q_off, q_tc, q_scaler,
     has_p_noise, has_s_noise, has_p_inl, has_s_inl) = plan

    lines = []
    emit = lines.append
    counter = [0]

    def quant(var, spec, indent=8):
        lines.extend(quantizer_lines(var, spec, indent, counter))

    def clip(target, src, lo, hi, indent=8):
        emit(" " * indent + _clip(target, src, lo, hi))

    emit(f"def kernel({', '.join(_KERNEL_ARGS)}):")

    # ---- prelude: array access + function binding -------------------------
    if backend == "c":
        for name in _HOT_ARRAYS + ("adc_p_noise", "adc_s_noise"):
            emit(f"    {name}_r = {name}")
    else:
        emit("    floor = _floor; trunc = _trunc")
        emit("    sin = _sin; cos = _cos; rnd = _rnd")
        hot = set(_HOT_ARRAYS)
        if has_p_noise:
            hot.add("adc_p_noise")
        if has_s_noise:
            hot.add("adc_s_noise")
        for name in _KERNEL_ARGS:
            if name in hot:
                emit(f"    {name}_r = {name}.tolist()")

    # ---- constants and entry state into locals ----------------------------
    for index, name in enumerate(CONSTS):
        emit(f"    {name} = consts_r[{index}]")
    for name in SCALAR_STATE:
        index = STATE_INDEX[name]
        if name == "overload":
            continue  # recomputed from the final AA states at exit
        if name in ("locked", "st_failed"):
            emit(f"    {name} = state_r[{index}] != 0.0")
        elif name == "st_count":
            emit(f"    st_count0 = state_r[{index}]")
        else:
            emit(f"    {name} = state_r[{index}]")
    emit("    st_active = st_state != 4.0")

    # ---- biquad cascades unrolled into locals -----------------------------
    for prefix, n_sec, coefs, zs in (("o", n_out, "out_coefs_r", "out_z_r"),
                                     ("q", n_quad, "quad_coefs_r", "quad_z_r")):
        for k in range(n_sec):
            base, zb = 5 * k, 2 * k
            emit(f"    {prefix}b0_{k} = {coefs}[{base}]; "
                 f"{prefix}b1_{k} = {coefs}[{base + 1}]; "
                 f"{prefix}b2_{k} = {coefs}[{base + 2}]")
            emit(f"    {prefix}a1_{k} = {coefs}[{base + 3}]; "
                 f"{prefix}a2_{k} = {coefs}[{base + 4}]")
            emit(f"    {prefix}z1_{k} = {zs}[{zb}]; "
                 f"{prefix}z2_{k} = {zs}[{zb + 1}]")

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
        emit(f"        out = pick_gain * {pos} * ca_gain + ca_{ch}_off_r[j]"
             f" + ca_{ch}_noise_r[j]")
        clip(f"{ch}1", "out", "-ca_rail", "ca_rail")
        emit(f"        ideal = ({ch}1 + trim_{ch} + pga_{ch}_off_r[j]"
             f" + pga_{ch}_noise_r[j]) * pga_{ch}_gain")
        emit(f"        pga_{ch}_state = pga_{ch}_state"
             f" + pga_{ch}_alpha * (ideal - pga_{ch}_state)")
        clip(f"{ch}2", f"pga_{ch}_state", f"-pga_{ch}_rail",
             f"pga_{ch}_rail")
        emit(f"        aa_{ch}1 = aa_{ch}1 + {aa_alpha} * ({ch}2 - aa_{ch}1)")
        emit(f"        aa_{ch}2 = aa_{ch}2 + {aa_alpha} * (aa_{ch}1 - aa_{ch}2)")
    for ch, has_inl, has_noise in (("p", has_p_inl, has_p_noise),
                                   ("s", has_s_inl, has_s_noise)):
        emit(f"        d = aa_{ch}2 * adc_{ch}_gain_r[j] + adc_{ch}_off_r[j]")
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
    emit("        comp = (comp - tcomp_off_r[j]) / tcomp_sens_r[j]")
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
    emit("        out = qd * ddac_gain_r[j] + ddac_off_r[j]")
    clip("drive_v", "out", "ddac_min", "ddac_max")
    if closed:
        clip("val", "control_word", "-1.0", "1.0")
        emit("        qd = rnd(val * cdac_vref / cdac_lsb) * cdac_lsb")
        emit("        out = qd * cdac_gain_r[j] + cdac_off_r[j]")
    else:
        emit("        out = 0.0 * cdac_gain_r[j] + cdac_off_r[j]")
    clip("control_v", "out", "cdac_min", "cdac_max")

    # trace recording (decimated; countdown instead of a per-sample %)
    emit("        if j == next_rec:")
    clip("clipped", "out_word", "-1.0", "1.0", 12)
    emit("            target = (mid + clipped * out_span + trim_out)"
         " / rdac_vref")
    clip("val", "target", "0.0", "1.0", 12)
    emit("            qd = rnd(val * rdac_vref / rdac_lsb) * rdac_lsb")
    emit("            out = qd * rdac_gain[j] + rdac_off[j]")
    clip("rdac_held", "out", "rdac_min", "rdac_max", 12)
    emit("            i = n0 + j")
    emit("            time_tr[rec] = start_time + i * dt")
    emit("            rate_tr[rec] = rate_j")
    emit("            temp_tr[rec] = temp[j]")
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

    # ---- write the final state back into the packed vectors ---------------
    for name in SCALAR_STATE:
        index = STATE_INDEX[name]
        if name == "overload":
            emit(f"    state[{index}] = 1.0 if (aa_p2 >= ov_thr"
                 " or -aa_p2 >= ov_thr or aa_s2 >= ov_thr"
                 " or -aa_s2 >= ov_thr) else 0.0")
        elif name in ("locked", "st_failed"):
            emit(f"    state[{index}] = 1.0 if {name} else 0.0")
        elif name == "st_count":
            emit(f"    state[{index}] = st_count0 + nc")
        else:
            emit(f"    state[{index}] = {name}")
    for prefix, zs, n_sec in (("o", "out_z", n_out), ("q", "quad_z", n_quad)):
        for k in range(n_sec):
            emit(f"    {zs}[{2 * k}] = {prefix}z1_{k}")
            emit(f"    {zs}[{2 * k + 1}] = {prefix}z2_{k}")
    emit("    return rec")
    emit("")
    return "\n".join(lines)


_KERNELS: dict = {}

#: Functions a generated kernel calls.  The Python backend binds the
#: ``_``-prefixed copies to locals in its prelude.
_FUNCTIONS = {"floor": math.floor, "trunc": math.trunc,
              "sin": math.sin, "cos": math.cos, "rnd": round}


#: Lane-kernel arguments passed by value, and the loop names the C
#: lowering keeps as integers and booleans (everything else is a double).
_SCALAR_ARGS = _HEAD_ARGS[:5]
_INT_NAMES = ("j", "i", "rec", "ev_idx", "ev_n", "next_ev", "next_rec", "_b")
_BOOL_NAMES = ("locked", "st_failed", "st_active", "just_failed")
_ARRAY_TYPES = {"ev_starts": "int", "lock_tr": "bool", "run_tr": "bool"}


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
    fn = _KERNELS.get(key)
    if fn is None:
        source = generate_kernel_source(plan, "python")
        namespace = dict(_FUNCTIONS)
        namespace.update(("_" + name, fn) for name, fn in _FUNCTIONS.items())
        code = compile(source, "<repro-compiled-kernel:python>", "exec")
        exec(code, namespace)
        fn = _KERNELS[key] = namespace["kernel"]
    return fn


def _native_kernel(plan: Tuple, platform, environment):
    """The C lane kernel of one plan, or the Python one if C fails.

    A lowering, build or self-check failure warns once and returns the
    Python kernel, which the caller then keeps for the plan.
    """
    try:
        c_source, lengths = native.lower(
            generate_kernel_source(plan, "c"), _SCALAR_ARGS, _INT_NAMES,
            _BOOL_NAMES, _ARRAY_TYPES)
        return native.load_or_build(
            c_source, COMPILER,
            lambda lib: native.bind(lib, _KERNEL_ARGS, _SCALAR_ARGS,
                                    lengths, _ARRAY_TYPES),
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


def _self_check(plan: Tuple, candidate, platform, environment) -> bool:
    """Whether ``candidate`` matches the Python kernel bit for bit.

    Both kernels run :data:`SELF_CHECK_SAMPLES` samples of ``platform``'s
    own stimulus, each on its own copy of the platform (so the
    platform's noise generators do not advance), recording every sample
    with waveforms.  When the Python kernel rejects that stimulus (a
    non-finite profile, say) the check runs on a still environment
    instead.  Raises :class:`~repro.engine.native.BuildError` when the
    platform cannot be copied or the Python kernel rejects both stimuli.
    """
    n = SELF_CHECK_SAMPLES
    for stimulus in (environment, Environment.still()):
        outputs = []
        for kernel in (_python_kernel(plan), candidate):
            probe = _probe_copy(platform)
            arrays = _lane_arrays(probe)
            traces = _trace_arrays(n + 1, True)
            try:
                _run_lane_chunk(kernel, probe, stimulus, 0, n, 1, 0, True,
                                arrays, traces)
            except (ConfigurationError, SimulationError):
                if kernel is candidate:
                    return False
                break  # the stimulus, not the candidate, is at fault
            state, _, _, out_z, _, quad_z = arrays
            outputs.append((state, out_z, quad_z, *traces))
        else:
            return all(a.tobytes() == b.tobytes() for a, b in zip(*outputs))
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


def _fill_lane_inputs(platform, environment, t: np.ndarray, out) -> list:
    """Fill one lane's per-sample chunk inputs in place.

    ``out`` maps every :data:`_LANE_INPUTS` name to a writable 1-D
    array of ``len(t)`` samples.  Draws the lane's noise and retunes its
    sensor exactly as the reference loop would over the chunk, and
    returns the sensor's temperature events
    (:func:`~repro.engine.state.sensor_temperature_plan`).

    Raises :class:`ConfigurationError` if the stimulus is not finite or
    the sensor rejects a temperature, and :class:`SimulationError` if
    the temperature sensor's reading overflows — the reference loop
    fails on exactly these inputs with the same types.
    """
    nc = t.size
    sensor = platform.sensor
    frontend = platform.frontend
    tsens = platform.config.temperature_sensor
    tc_cfg = platform.conditioner.sense_chain.temperature_comp.config
    out["rate"][:], out["temp"][:] = environment.sample(t)
    temp = out["temp"]
    # the extremes flag a non-finite temperature, bound the sensor
    # reading below and spare the sensor plan its own pass
    tmin, tmax = float(temp.min()), float(temp.max())
    for name, finite, profile in (
            ("rate", np.isfinite(out["rate"]).all(), environment.rate_dps),
            ("temperature", math.isfinite(tmin) and math.isfinite(tmax),
             environment.temperature_c)):
        if not finite:
            raise ConfigurationError(
                f"{name} profile {profile!r} is not finite in the chunk "
                f"starting at t = {t[0]:g} s")
    events = sensor_temperature_plan(sensor, temp, tmin, tmax)
    # the reading is monotonic in the temperature, so it overflows at an
    # extreme or nowhere (checked in Python floats: NumPy would warn)
    if any(math.isinf((x + tsens.offset_error_c) / tsens.resolution_c)
           for x in (tmin, tmax)):
        raise SimulationError(
            "the temperature sensor reading overflows in the chunk "
            f"starting at t = {t[0]:g} s")
    dt_c = temp - 25.0
    dtm = (np.round((temp + tsens.offset_error_c) / tsens.resolution_c)
           * tsens.resolution_c) - 25.0

    out["sens_noise"][:] = sensor._noise.take(nc)
    for ch, amp, pga, adc in (
            ("p", frontend.primary_charge_amp, frontend.primary_pga,
             frontend.primary_adc),
            ("s", frontend.secondary_charge_amp, frontend.secondary_pga,
             frontend.secondary_adc)):
        out[f"ca_{ch}_off"][:] = (amp.config.offset_v
                                  + amp.config.offset_tc_v_per_c * dt_c)
        out[f"ca_{ch}_noise"][:] = amp._noise.take(nc)
        out[f"pga_{ch}_off"][:] = (pga.config.offset_v
                                   + pga.config.offset_tc_v_per_c * dt_c)
        out[f"pga_{ch}_noise"][:] = pga._noise.take(nc)
        out[f"adc_{ch}_noise"][:] = adc._noise.take(nc)
    for name, device in (("adc_p", frontend.primary_adc),
                         ("adc_s", frontend.secondary_adc),
                         ("ddac", frontend.drive_dac),
                         ("cdac", frontend.control_dac),
                         ("rdac", frontend.rate_output_dac)):
        c = device.config
        out[name + "_gain"][:] = ((1.0 + c.gain_error)
                                  * (1.0 + c.gain_tc_ppm_per_c * 1e-6 * dt_c))
        out[name + "_off"][:] = c.offset_error_v + c.offset_tc_v_per_c * dt_c

    tcomp_off = np.zeros(nc)
    for i, c in enumerate(tc_cfg.offset_poly):
        tcomp_off = tcomp_off + c * dtm ** i
    tcomp_sens = np.zeros(nc)
    for i, c in enumerate(tc_cfg.sensitivity_poly):
        tcomp_sens = tcomp_sens + c * dtm ** (i + 1)
    out["tcomp_off"][:] = tcomp_off
    out["tcomp_sens"][:] = 1.0 + tcomp_sens
    if np.any(out["tcomp_sens"] == 0.0):
        raise ConfigurationError("sensitivity correction factor reached zero")
    return events


def _event_rows(events) -> Tuple[List[int], np.ndarray]:
    """Sample indices and ``(m, 15)`` coefficient rows of sensor events."""
    rows = np.empty((len(events), 15))
    for k, (_, ev) in enumerate(events):
        rows[k, :6] = ev["pa"]
        rows[k, 6:12] = ev["sa"]
        rows[k, 12:] = (ev["pickoff_gain"], ev["offset_rate_dps"],
                        ev["primary_res_hz"])
    return [e[0] for e in events], rows


def _result(traces, rl: int, fs: float, dec: int, record_waveforms: bool,
            platform) -> GyroSimulationResult:
    """Slice the first ``rl`` records of one lane's trace arrays."""
    (time_tr, rate_tr, temp_tr, out_dps_tr, out_v_tr, agc_tr, agc_err_tr,
     perr_tr, vco_tr, lock_tr, run_tr, pick_tr, drive_tr) = traces
    return GyroSimulationResult(
        time_s=time_tr[:rl],
        sample_rate_hz=fs / dec,
        true_rate_dps=rate_tr[:rl],
        temperature_c=temp_tr[:rl],
        rate_output_dps=out_dps_tr[:rl],
        rate_output_v=out_v_tr[:rl],
        amplitude_control=agc_tr[:rl],
        amplitude_error=agc_err_tr[:rl],
        phase_error=perr_tr[:rl],
        vco_control=vco_tr[:rl],
        pll_locked=lock_tr[:rl],
        running=run_tr[:rl],
        primary_pickoff_norm=pick_tr[:rl] if record_waveforms else None,
        drive_word=drive_tr[:rl] if record_waveforms else None,
        turn_on_time_s=platform.conditioner.startup.turn_on_time_s,
    )


_EMPTY = np.zeros(0)


def _trace_arrays(n_rec: int, record_waveforms: bool) -> list:
    """Zeroed trace buffers of ``n_rec`` records in :data:`_TRACES` order."""
    return [_EMPTY if name in ("pick_tr", "drive_tr") and not record_waveforms
            else np.zeros(n_rec, dtype=bool if name in ("lock_tr", "run_tr")
                          else float)
            for name in _TRACES]


def _lane_arrays(platform) -> tuple:
    """``(state, consts, out_coefs, out_z, quad_coefs, quad_z)`` of a lane.

    Raises :class:`ConfigurationError` if a constant the kernel divides
    by is zero or not finite.
    """
    sense = platform.conditioner.sense_chain
    consts = gather_consts(platform, platform._time_s)
    check_divisors(consts)
    return ((pack_scalar_state(platform), consts)
            + biquad_arrays(sense.output_filter)
            + biquad_arrays(sense.quadrature_filter))


def _check_finite(t0: float, *arrays) -> None:
    """Raise :class:`SimulationError` unless every loop state is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise SimulationError(
            f"the loop state left the finite range in the chunk starting "
            f"at t = {t0:g} s")


def _run_lane_chunk(kernel, platform, environment, n0: int, nc: int,
                    dec: int, rec: int, record_waveforms: bool, arrays,
                    traces) -> int:
    """Fill one chunk's inputs and run it on a lane kernel; returns ``rec``.

    A kernel ``ValueError``/``OverflowError``/``ZeroDivisionError`` (the
    Python backend failing mid-chunk) and non-finite state after the
    chunk (the C backend carrying on) both raise
    :class:`SimulationError`.
    """
    t = np.arange(n0, n0 + nc) * (1.0 / platform.config.sample_rate_hz)
    inputs = np.empty((len(_LANE_INPUTS), nc))
    state, _, _, out_z, _, quad_z = arrays
    try:
        events = _fill_lane_inputs(platform, environment, t,
                                   dict(zip(_LANE_INPUTS, inputs)))
        ev_starts, ev_rows = _event_rows(events)
        rec = int(kernel(n0, nc, dec, rec, record_waveforms, *arrays,
                         np.array(ev_starts, dtype=np.int64),
                         ev_rows.ravel(), *inputs, *traces))
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise SimulationError(
            f"the loop failed in the chunk starting at t = {t[0]:g} s: "
            f"{exc}") from exc
    _check_finite(t[0], state, out_z, quad_z)
    return rec


def run_compiled(platform, environment, duration_s: float,
                 record_waveforms: bool = False) -> GyroSimulationResult:
    """Run the platform co-simulation on the compiled engine.

    Drop-in replacement for the reference loop of
    :meth:`GyroPlatform.run` (validation and reset are handled by the
    caller) with the same result and end-of-run platform state, bit for
    bit.  Platforms whose fixed-point formats use ``overflow="error"``
    are delegated to the reference loop (generated kernels cannot raise
    overflow errors).
    """
    plan = kernel_plan(platform)
    if plan is None:
        return platform._run_reference(environment, duration_s,
                                       record_waveforms)
    fs = platform.config.sample_rate_hz
    n = int(round(duration_s * fs))
    dec = platform.config.record_decimation
    start_time = platform._time_s

    arrays = _lane_arrays(platform)
    kernel = _compile_kernel(plan, platform=platform,
                             environment=environment)
    traces = _trace_arrays(n // dec + 1, record_waveforms)
    rec = 0
    chunk = CHUNK_SAMPLES
    for n0 in range(0, n, chunk):
        rec = _run_lane_chunk(kernel, platform, environment, n0,
                              min(chunk, n - n0), dec, rec,
                              record_waveforms, arrays, traces)

    state, _, _, out_z, _, quad_z = arrays
    finish_run(platform, state, out_z, quad_z, n, start_time)
    return _result(traces, rec, fs, dec, record_waveforms, platform)

