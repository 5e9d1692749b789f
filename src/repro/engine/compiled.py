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
that key: the whole closed loop on local floats, quantisers inlined with
their constants baked as literals, biquad cascades unrolled, dead
branches dropped, the start-up sequencer skipped once it reaches RUNNING
and the record point tracked with a countdown instead of a modulo.

The same generated source is compiled two ways:

* ``"numba"`` — wrapped in ``numba.njit`` (no ``fastmath``, so IEEE-754
  semantics are preserved) when numba is importable; the kernel then
  runs as native code after a one-off JIT compile per new structure.
* ``"python"`` — plain ``compile()``/``exec``; a ``.tolist()`` prelude
  moves the per-sample arrays into Python floats so the loop runs on
  scalar floats.  This fallback is selected automatically when numba is
  missing, so the ``"compiled"`` engine always registers and behaves
  identically — only slower.

Bit-identity contract: the generated arithmetic replicates the reference
chain operation for operation — same expression order, same rounding
points, same RNG block draws — so traces and end-of-run platform state
are bit-identical to the reference engine on both backends.  The DSP
monitor registers are refreshed once at the end of each run instead of
every ``status_update_interval`` samples.  All mutable loop state
travels through the packed vectors of :mod:`repro.engine.state`
(:func:`~repro.engine.state.pack_scalar_state` /
:func:`~repro.engine.state.finish_run`), which is what lets faults,
safe-mode latching and early-exit lane retirement behave identically:
the campaign layer keeps mutating the platform objects between chunks
and every chunk re-packs from them.

Formats with ``overflow="error"`` cannot raise from inside a generated
kernel, so :func:`run_compiled` transparently delegates such platforms
to the reference loop (same results, same exception behaviour).

Runs are processed in time chunks (:data:`CHUNK_SAMPLES`) like the
batched engine; fleets of more than :data:`LANE_CHUNK` lanes drop to
:data:`BIG_FLEET_CHUNK_SAMPLES` so a big Monte Carlo sweep's per-lane
working set stays cache-resident.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from ..common.exceptions import ConfigurationError
from ..platform.result import GyroSimulationResult
from .state import (
    CONSTS,
    SCALAR_STATE,
    STATE_INDEX,
    biquad_arrays,
    finish_run,
    gather_consts,
    loop_structure,
    pack_scalar_state,
    sensor_temperature_plan,
)

try:  # pragma: no cover - absence is the tested path in this environment
    import numba
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    numba = None
    HAVE_NUMBA = False

#: Samples per kernel invocation for single runs and small fleets.
CHUNK_SAMPLES = 16384
#: Fleet size above which the per-lane time chunk shrinks.
LANE_CHUNK = 64
#: Samples per kernel invocation for >LANE_CHUNK-lane fleets, so the
#: combined per-lane buffers of a big sweep stay cache-resident.
BIG_FLEET_CHUNK_SAMPLES = 4096

_PI = repr(math.pi)
_TWO_PI = repr(2.0 * math.pi)

#: Kernel argument order (shared by both backends).
_KERNEL_ARGS = (
    "n0", "nc", "dec", "rec", "record_waveforms", "state", "consts",
    "rate", "temp", "sens_noise", "ca_off", "ca_p_noise", "ca_s_noise",
    "pga_p_off", "pga_s_off", "pga_p_noise", "pga_s_noise",
    "adc_p_gain", "adc_p_off", "adc_p_noise",
    "adc_s_gain", "adc_s_off", "adc_s_noise",
    "ddac_gain", "ddac_off", "cdac_gain", "cdac_off",
    "rdac_gain", "rdac_off", "tcomp_off", "tcomp_sens",
    "ev_starts", "ev_coefs", "out_coefs", "out_z", "quad_coefs", "quad_z",
    "time_tr", "rate_tr", "temp_tr", "out_dps_tr", "out_v_tr", "agc_tr",
    "agc_err_tr", "perr_tr", "vco_tr", "lock_tr", "run_tr",
    "pick_tr", "drive_tr",
)

#: Arrays the Python backend converts to lists up front (per-sample
#: reads on Python floats are several times faster than on NumPy
#: scalars).  The write-back arrays (state/out_z/quad_z/traces) and the
#: record-point-only arrays (temp, rdac_gain, rdac_off) stay ndarrays.
_HOT_ARRAYS = (
    "consts", "state", "rate", "sens_noise", "ca_off", "ca_p_noise",
    "ca_s_noise", "pga_p_off", "pga_s_off", "pga_p_noise", "pga_s_noise",
    "adc_p_gain", "adc_p_off", "adc_s_gain", "adc_s_off",
    "ddac_gain", "ddac_off", "cdac_gain", "cdac_off",
    "tcomp_off", "tcomp_sens",
    "ev_starts", "ev_coefs", "out_coefs", "out_z", "quad_coefs", "quad_z",
)

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


def quantizer_lines(var, spec, indent: int, counter) -> list:
    """Emit the bit-exact inline equivalent of ``var = quantize(var, fmt)``.

    ``spec`` is a :func:`~repro.engine.state.fmt_spec` tuple (``None``
    emits nothing) and ``counter`` a one-element list used to mint
    unique temporaries, so
    every inlined site stays SSA-friendly for numba.  Exposed at module
    level so tests can lock the generated snippet against
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
        lines.append(f"{pad}{r} = {lo!r} if {r} < {lo!r} "
                     f"else ({hi!r} if {r} > {hi!r} else {r})")
    else:  # wrap ("error" never reaches codegen: kernel_plan -> None)
        span = hi - lo + 1
        lines.append(f"{pad}{r} = (({r} - {lo!r}) % {span!r}) + {lo!r}")
    lines.append(f"{pad}{var} = {r} * {lsb!r}")
    return lines


def generate_kernel_source(plan: Tuple, backend: str) -> str:
    """Emit the specialised kernel source for one plan and backend.

    The produced function body is identical for both backends except for
    the array-access prelude; the ``"python"`` variant reads per-sample
    data from ``.tolist()`` copies while ``"numba"`` indexes the ndarrays
    directly (and is then compiled by :func:`numba.njit`).
    """
    if backend not in ("python", "numba"):
        raise ConfigurationError(f"unknown kernel backend {backend!r}")
    (closed, n_out, n_quad, q_nco, q_agc, q_drive, q_demod, q_qc,
     q_out, q_quad, q_off, q_tc, q_scaler,
     has_p_noise, has_s_noise, has_p_inl, has_s_inl) = plan

    lines = []
    emit = lines.append
    counter = [0]

    def quant(var, spec, indent):
        lines.extend(quantizer_lines(var, spec, indent, counter))

    args = ", ".join(_KERNEL_ARGS)
    emit(f"def kernel({args}):")

    # ---- backend prelude: array access + function binding -----------------
    if backend == "python":
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
    else:
        for name in _HOT_ARRAYS + ("adc_p_noise", "adc_s_noise"):
            emit(f"    {name}_r = {name}")

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
    for k in range(n_out):
        base, zb = 5 * k, 2 * k
        emit(f"    ob0_{k} = out_coefs_r[{base}]; "
             f"ob1_{k} = out_coefs_r[{base + 1}]; "
             f"ob2_{k} = out_coefs_r[{base + 2}]")
        emit(f"    oa1_{k} = out_coefs_r[{base + 3}]; "
             f"oa2_{k} = out_coefs_r[{base + 4}]")
        emit(f"    oz1_{k} = out_z_r[{zb}]; oz2_{k} = out_z_r[{zb + 1}]")
    for k in range(n_quad):
        base, zb = 5 * k, 2 * k
        emit(f"    qb0_{k} = quad_coefs_r[{base}]; "
             f"qb1_{k} = quad_coefs_r[{base + 1}]; "
             f"qb2_{k} = quad_coefs_r[{base + 2}]")
        emit(f"    qa1_{k} = quad_coefs_r[{base + 3}]; "
             f"qa2_{k} = quad_coefs_r[{base + 4}]")
        emit(f"    qz1_{k} = quad_z_r[{zb}]; qz2_{k} = quad_z_r[{zb + 1}]")

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
    emit("        out = pick_gain * x * ca_gain + ca_off_r[j]"
         " + ca_p_noise_r[j]")
    emit("        p1 = -ca_rail if out < -ca_rail"
         " else (ca_rail if out > ca_rail else out)")
    emit("        ideal = (p1 + trim_p + pga_p_off_r[j] + pga_p_noise_r[j])"
         " * pga_p_gain")
    emit("        pga_p_state = pga_p_state"
         " + pga_p_alpha * (ideal - pga_p_state)")
    emit("        p2 = (-pga_p_rail if pga_p_state < -pga_p_rail"
         " else (pga_p_rail if pga_p_state > pga_p_rail else pga_p_state))")
    emit("        aa_p1 = aa_p1 + aa_alpha * (p2 - aa_p1)")
    emit("        aa_p2 = aa_p2 + aa_alpha * (aa_p1 - aa_p2)")

    emit("        out = pick_gain * y * ca_gain + ca_off_r[j]"
         " + ca_s_noise_r[j]")
    emit("        s1 = -ca_rail if out < -ca_rail"
         " else (ca_rail if out > ca_rail else out)")
    emit("        ideal = (s1 + trim_s + pga_s_off_r[j] + pga_s_noise_r[j])"
         " * pga_s_gain")
    emit("        pga_s_state = pga_s_state"
         " + pga_s_alpha * (ideal - pga_s_state)")
    emit("        s2 = (-pga_s_rail if pga_s_state < -pga_s_rail"
         " else (pga_s_rail if pga_s_state > pga_s_rail else pga_s_state))")
    emit("        aa_s1 = aa_s1 + aa_alpha_s * (s2 - aa_s1)")
    emit("        aa_s2 = aa_s2 + aa_alpha_s * (aa_s1 - aa_s2)")

    emit("        d = aa_p2 * adc_p_gain_r[j] + adc_p_off_r[j]")
    if has_p_inl:
        emit("        nrm = d / adc_p_vref")
        emit("        nrm = -1.0 if nrm < -1.0 else (1.0 if nrm > 1.0"
             " else nrm)")
        emit("        d += adc_p_kinl * (1.0 - nrm * nrm)")
    if has_p_noise:
        emit("        d += adc_p_noise_r[j]")
    emit("        code = floor(d / adc_p_lsb + 0.5)")
    emit("        code = adc_p_cmin if code < adc_p_cmin"
         " else (adc_p_cmax if code > adc_p_cmax else code)")
    emit("        p_norm = code * adc_p_lsb / adc_p_vref")

    emit("        d = aa_s2 * adc_s_gain_r[j] + adc_s_off_r[j]")
    if has_s_inl:
        emit("        nrm = d / adc_s_vref")
        emit("        nrm = -1.0 if nrm < -1.0 else (1.0 if nrm > 1.0"
             " else nrm)")
        emit("        d += adc_s_kinl * (1.0 - nrm * nrm)")
    if has_s_noise:
        emit("        d += adc_s_noise_r[j]")
    emit("        code = floor(d / adc_s_lsb + 0.5)")
    emit("        code = adc_s_cmin if code < adc_s_cmin"
         " else (adc_s_cmax if code > adc_s_cmax else code)")
    emit("        s_norm = code * adc_s_lsb / adc_s_vref")

    # drive PLL: phase detector -> PI -> NCO
    emit("        pd_state = pd_state + pd_alpha * (p_norm * cos_ref"
         " - pd_state)")
    emit("        amp_state = amp_state + amp_alpha * (p_norm * sin_ref"
         " - amp_state)")
    emit("        amplitude = 2.0 * amp_state")
    emit("        if amplitude < 0.0:")
    emit("            amplitude = 0.0")
    emit("        if amplitude > pll_thr:")
    emit("            denom = amplitude if amplitude > pll_thr else pll_thr")
    emit("            err = 2.0 * pd_state / denom")
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
    quant("sin_ref", q_nco, 8)
    quant("cos_ref", q_nco, 8)

    # AGC
    emit("        agc_err = agc_target - amplitude")
    emit("        agc_integ += agc_ki * agc_err")
    emit("        if agc_integ < agc_min:")
    emit("            agc_integ = agc_min")
    emit("        elif agc_integ > agc_max:")
    emit("            agc_integ = agc_max")
    emit("        agc_gain = agc_kp * agc_err + agc_integ")
    emit("        if agc_gain < agc_min:")
    emit("            agc_gain = agc_min")
    emit("        elif agc_gain > agc_max:")
    emit("            agc_gain = agc_max")
    quant("agc_gain", q_agc, 8)
    emit("        drive_word = agc_gain * cos_ref")
    quant("drive_word", q_drive, 8)

    # sense chain: I/Q demod -> quadrature cancel -> filters -> comp
    emit("        di_state = di_state + demod_alpha * (s_norm * cos_ref"
         " - di_state)")
    emit("        i_chan = 2.0 * di_state")
    emit("        dq_state = dq_state + demod_alpha * (s_norm * sin_ref"
         " - dq_state)")
    emit("        q_chan = 2.0 * dq_state")
    quant("i_chan", q_demod, 8)
    quant("q_chan", q_demod, 8)
    emit("        raw = i_chan - qc_coeff * q_chan")
    quant("raw", q_qc, 8)
    emit("        v = raw")
    for k in range(n_out):
        emit(f"        yy = ob0_{k} * v + oz1_{k}")
        emit(f"        oz1_{k} = ob1_{k} * v - oa1_{k} * yy + oz2_{k}")
        emit(f"        oz2_{k} = ob2_{k} * v - oa2_{k} * yy")
        quant("yy", q_out, 8)
        emit("        v = yy")
    emit("        rate_channel = v")
    emit("        v = q_chan")
    for k in range(n_quad):
        emit(f"        yy = qb0_{k} * v + qz1_{k}")
        emit(f"        qz1_{k} = qb1_{k} * v - qa1_{k} * yy + qz2_{k}")
        emit(f"        qz2_{k} = qb2_{k} * v - qa2_{k} * yy")
        quant("yy", q_quad, 8)
        emit("        v = yy")
    emit("        quad_channel = v")
    emit("        comp = rate_channel - off_comp")
    quant("comp", q_off, 8)
    emit("        comp = (comp - tcomp_off_r[j]) / tcomp_sens_r[j]")
    quant("comp", q_tc, 8)
    emit("        rate_dps_val = comp * scale_dps")
    emit("        word = rate_dps_val / full_scale")
    emit("        word = -1.0 if word < -1.0 else (1.0 if word > 1.0"
         " else word)")
    quant("word", q_scaler, 8)
    emit("        rate_word = word")

    # force rebalance (closed-loop configuration) — structural branch
    if closed:
        emit("        reb_state = reb_state + reb_alpha * (s_norm * cos_ref"
             " - reb_state)")
        emit("        reb_residual = 2.0 * reb_state")
        emit("        reb_integ += reb_ki * reb_residual")
        emit("        if reb_integ > reb_limit:")
        emit("            reb_integ = reb_limit")
        emit("        elif reb_integ < -reb_limit:")
        emit("            reb_integ = -reb_limit")
        emit("        reb_cmd = reb_kp * reb_residual + reb_integ")
        emit("        if reb_cmd > reb_limit:")
        emit("            reb_cmd = reb_limit")
        emit("        elif reb_cmd < -reb_limit:")
        emit("            reb_cmd = -reb_limit")
        emit("        control_word = -reb_cmd * cos_ref")
        emit("        out_dps = reb_cmd * scale_dps")
        emit("        out_word = out_dps / full_scale")
        emit("        out_word = -1.0 if out_word < -1.0"
             " else (1.0 if out_word > 1.0 else out_word)")
        quant("out_word", q_scaler, 8)
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

    # drive / control DACs
    emit("        val = -1.0 if drive_word < -1.0"
         " else (1.0 if drive_word > 1.0 else drive_word)")
    emit("        qd = rnd(val * ddac_vref / ddac_lsb) * ddac_lsb")
    emit("        out = qd * ddac_gain_r[j] + ddac_off_r[j]")
    emit("        drive_v = ddac_min if out < ddac_min"
         " else (ddac_max if out > ddac_max else out)")
    emit("        val = -1.0 if control_word < -1.0"
         " else (1.0 if control_word > 1.0 else control_word)")
    emit("        qd = rnd(val * cdac_vref / cdac_lsb) * cdac_lsb")
    emit("        out = qd * cdac_gain_r[j] + cdac_off_r[j]")
    emit("        control_v = cdac_min if out < cdac_min"
         " else (cdac_max if out > cdac_max else out)")

    # trace recording (decimated; countdown instead of a per-sample %)
    emit("        if j == next_rec:")
    emit("            clipped = -1.0 if out_word < -1.0"
         " else (1.0 if out_word > 1.0 else out_word)")
    emit("            target = (mid + clipped * out_span + trim_out)"
         " / rdac_vref")
    emit("            val = 0.0 if target < 0.0"
         " else (1.0 if target > 1.0 else target)")
    emit("            qd = rnd(val * rdac_vref / rdac_lsb) * rdac_lsb")
    emit("            out = qd * rdac_gain[j] + rdac_off[j]")
    emit("            rdac_held = rdac_min if out < rdac_min"
         " else (rdac_max if out > rdac_max else out)")
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
    for k in range(n_out):
        emit(f"    out_z[{2 * k}] = oz1_{k}")
        emit(f"    out_z[{2 * k + 1}] = oz2_{k}")
    for k in range(n_quad):
        emit(f"    quad_z[{2 * k}] = qz1_{k}")
        emit(f"    quad_z[{2 * k + 1}] = qz2_{k}")
    emit("    return rec")
    emit("")
    return "\n".join(lines)


_KERNELS: dict = {}


def compiled_backend() -> str:
    """Name of the backend the compiled engine selects: numba or python."""
    return "numba" if HAVE_NUMBA else "python"


def backend_info() -> dict:
    """Provenance record for benchmark artifacts and diagnostics."""
    info = {"backend": compiled_backend(), "numba_available": HAVE_NUMBA}
    if HAVE_NUMBA:  # pragma: no cover - requires the optional dependency
        info["numba_version"] = numba.__version__
    return info


def _compile_kernel(plan: Tuple, backend: Optional[str] = None):
    """Compile (and cache) the specialised kernel for one plan."""
    if backend is None:
        backend = compiled_backend()
    key = (plan, backend)
    fn = _KERNELS.get(key)
    if fn is None:
        source = generate_kernel_source(plan, backend)
        namespace = {
            "floor": math.floor, "trunc": math.trunc,
            "sin": math.sin, "cos": math.cos, "rnd": round,
            "_floor": math.floor, "_trunc": math.trunc,
            "_sin": math.sin, "_cos": math.cos, "_rnd": round,
        }
        code = compile(source, f"<repro-compiled-kernel:{backend}>", "exec")
        exec(code, namespace)
        fn = namespace["kernel"]
        if backend == "numba":  # pragma: no cover - optional dependency
            fn = numba.njit(cache=False, fastmath=False)(fn)
        _KERNELS[key] = fn
    return fn


_EMPTY = np.zeros(0)


def run_compiled(platform, environment, duration_s: float,
                 record_waveforms: bool = False, *,
                 chunk_samples: Optional[int] = None) -> GyroSimulationResult:
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

    cfg = platform.config
    fs = cfg.sample_rate_hz
    dt = 1.0 / fs
    n = int(round(duration_s * fs))
    dec = cfg.record_decimation
    n_rec = n // dec + 1
    start_time = platform._time_s

    sensor = platform.sensor
    frontend = platform.frontend
    conditioner = platform.conditioner
    sense = conditioner.sense_chain
    tsens = cfg.temperature_sensor
    tc_cfg = sense.temperature_comp.config
    ca_cfg = frontend.primary_charge_amp.config
    pga_p = frontend.primary_pga
    pga_s = frontend.secondary_pga
    adc_p = frontend.primary_adc
    adc_s = frontend.secondary_adc
    ddac = frontend.drive_dac
    cdac = frontend.control_dac
    rdac = frontend.rate_output_dac
    has_p_noise, has_s_noise = plan[13], plan[14]

    kernel = _compile_kernel(plan)
    consts = gather_consts(platform, start_time)
    state = pack_scalar_state(platform)
    out_coefs, out_z = biquad_arrays(sense.output_filter)
    quad_coefs, quad_z = biquad_arrays(sense.quadrature_filter)

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
    pick_tr = np.zeros(n_rec) if record_waveforms else _EMPTY
    drive_tr = np.zeros(n_rec) if record_waveforms else _EMPTY
    rec = 0

    chunk = int(chunk_samples) if chunk_samples else CHUNK_SAMPLES
    n0 = 0
    while n0 < n:
        nc = min(chunk, n - n0)
        t = np.arange(n0, n0 + nc) * dt
        rate_arr, temp_arr = environment.sample(t)
        rate_arr = np.asarray(rate_arr, dtype=float)
        temp_arr = np.asarray(temp_arr, dtype=float)
        dt_c = temp_arr - 25.0
        meas = (np.round((temp_arr + tsens.offset_error_c)
                         / tsens.resolution_c) * tsens.resolution_c)
        dtm = meas - 25.0

        events = sensor_temperature_plan(sensor, temp_arr)
        ev_starts = np.array([e[0] for e in events], dtype=np.int64)
        ev_coefs = np.empty(len(events) * 15)
        for k, (_, ev) in enumerate(events):
            base = 15 * k
            ev_coefs[base:base + 6] = ev["pa"]
            ev_coefs[base + 6:base + 12] = ev["sa"]
            ev_coefs[base + 12] = ev["pickoff_gain"]
            ev_coefs[base + 13] = ev["offset_rate_dps"]
            ev_coefs[base + 14] = ev["primary_res_hz"]

        sens_noise = sensor._noise.take(nc)
        ca_off = ca_cfg.offset_v + ca_cfg.offset_tc_v_per_c * dt_c
        ca_p_noise = frontend.primary_charge_amp._noise.take(nc)
        ca_s_noise = frontend.secondary_charge_amp._noise.take(nc)
        pga_p_off = (pga_p.config.offset_v
                     + pga_p.config.offset_tc_v_per_c * dt_c)
        pga_s_off = (pga_s.config.offset_v
                     + pga_s.config.offset_tc_v_per_c * dt_c)
        pga_p_noise = pga_p._noise.take(nc)
        pga_s_noise = pga_s._noise.take(nc)

        def converter_drift(device):
            c = device.config
            gain = ((1.0 + c.gain_error)
                    * (1.0 + c.gain_tc_ppm_per_c * 1e-6 * dt_c))
            off = c.offset_error_v + c.offset_tc_v_per_c * dt_c
            return gain, off

        adc_p_gain, adc_p_off = converter_drift(adc_p)
        adc_s_gain, adc_s_off = converter_drift(adc_s)
        adc_p_noise = adc_p._noise.take(nc) if has_p_noise else _EMPTY
        adc_s_noise = adc_s._noise.take(nc) if has_s_noise else _EMPTY
        ddac_gain, ddac_off = converter_drift(ddac)
        cdac_gain, cdac_off = converter_drift(cdac)
        rdac_gain, rdac_off = converter_drift(rdac)

        tcomp_off = np.zeros(nc)
        for i, c in enumerate(tc_cfg.offset_poly):
            tcomp_off = tcomp_off + c * dtm ** i
        tcomp_sens = np.zeros(nc)
        for i, c in enumerate(tc_cfg.sensitivity_poly):
            tcomp_sens = tcomp_sens + c * dtm ** (i + 1)
        tcomp_sens = 1.0 + tcomp_sens
        if np.any(tcomp_sens == 0.0):
            raise ConfigurationError(
                "sensitivity correction factor reached zero")

        rec = int(kernel(
            n0, nc, dec, rec, record_waveforms, state, consts,
            rate_arr, temp_arr, sens_noise, ca_off, ca_p_noise, ca_s_noise,
            pga_p_off, pga_s_off, pga_p_noise, pga_s_noise,
            adc_p_gain, adc_p_off, adc_p_noise,
            adc_s_gain, adc_s_off, adc_s_noise,
            ddac_gain, ddac_off, cdac_gain, cdac_off,
            rdac_gain, rdac_off, tcomp_off, tcomp_sens,
            ev_starts, ev_coefs, out_coefs, out_z, quad_coefs, quad_z,
            time_tr, rate_tr, temp_tr, out_dps_tr, out_v_tr, agc_tr,
            agc_err_tr, perr_tr, vco_tr, lock_tr, run_tr,
            pick_tr, drive_tr))
        n0 += nc

    finish_run(platform, state, out_z, quad_z, n, start_time)

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


def run_compiled_fleet(platforms: Sequence, environments, durations_s,
                       record_waveforms: bool = False):
    """Run a fleet of platforms on the compiled engine.

    Unlike the lockstep :class:`~repro.engine.batch.FleetSimulator`, the
    lanes run sequentially through their own specialised kernels, so the
    fleet may be structurally heterogeneous and per-lane durations
    (early-exit retirement) are free.  Fleets larger than
    :data:`LANE_CHUNK` use the smaller :data:`BIG_FLEET_CHUNK_SAMPLES`
    time chunk so big Monte Carlo sweeps stay cache-resident.

    Returns one :class:`~repro.platform.result.GyroSimulationResult` per
    lane.
    """
    n_lanes = len(platforms)
    if not isinstance(environments, (list, tuple)):
        environments = [environments] * n_lanes
    if isinstance(durations_s, (int, float)):
        durations_s = [durations_s] * n_lanes
    if len(environments) != n_lanes or len(durations_s) != n_lanes:
        raise ConfigurationError(
            "fleet environments/durations must match the number of lanes")
    if not all(0.0 < d < math.inf for d in durations_s):
        raise ConfigurationError("durations must be finite and > 0")
    chunk = CHUNK_SAMPLES if n_lanes <= LANE_CHUNK else BIG_FLEET_CHUNK_SAMPLES
    return [
        run_compiled(platform, environment, duration_s, record_waveforms,
                     chunk_samples=chunk)
        for platform, environment, duration_s
        in zip(platforms, environments, durations_s)
    ]
