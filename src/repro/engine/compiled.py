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

One emit sequence renders the plan in two *layouts*:

* **lane** — the loop on local floats for one platform, with two
  backends.  ``"c"`` lowers the source variant that indexes the
  ndarrays directly to C (:mod:`repro.engine.native`), builds it with
  the system compiler into an on-disk cache and calls it through
  :mod:`ctypes`; a new library must reproduce the Python kernel bit for
  bit on the requesting platform's own stimulus before it is cached
  (:data:`SELF_CHECK_SAMPLES`).  ``"python"`` runs the source through
  ``compile()``/``exec`` after a ``.tolist()`` prelude that moves the
  per-sample arrays into Python floats.  It is the fallback when no
  compiler is found (:data:`COMPILER`) or a build fails, so the
  ``"compiled"`` engine always registers and behaves identically, only
  slower.
* **lockstep** — the same loop with every local a ``(B,)`` NumPy row of
  ``B`` lanes stepped together: the packed ``(S, B)`` state, the
  ``(C, B)`` constants, the biquad arrays and ``(nc, B)`` chunk inputs.
  One interpreter pass per sample then advances the whole fleet.  Only
  clips and quantisers, the PLL/lock branch, the start-up sequencer,
  the temperature events and the two acquisition channels (stacked on
  a ``(2, B)`` axis) render differently.

:func:`run_compiled_fleet` picks the layout from the fleet's shape (see
:data:`LOCKSTEP_CROSSOVER`); no option selects it.

Bit-identity contract: the generated arithmetic replicates the reference
chain operation for operation — same expression order, same rounding
points, same RNG block draws, and NumPy's elementwise ``sin``/``cos``/
``rint``/``floor`` match ``math``'s and ``round`` bit for bit — so traces
and end-of-run platform state are bit-identical to the reference engine
in both layouts and on both backends.  The DSP monitor registers are
refreshed once at the end of each run instead of every
``status_update_interval`` samples.  All mutable loop state travels
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

Runs are processed in time chunks (:data:`CHUNK_SAMPLES`); fleets of
more than :data:`LANE_CHUNK` lanes drop to
:data:`BIG_FLEET_CHUNK_SAMPLES` so a big Monte Carlo sweep's per-lane
working set stays cache-resident.
"""

from __future__ import annotations

import copy
import math
import pickle
import warnings
from typing import List, Optional, Sequence, Tuple, Union

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
#: Backend of the lane layout: ``"c"`` with a compiler, else ``"python"``.
BACKEND = "c" if COMPILER else "python"

#: Samples per kernel invocation for single runs and small fleets.
CHUNK_SAMPLES = 16384
#: Fleet size above which the per-lane time chunk shrinks.
LANE_CHUNK = 64
#: Samples per kernel invocation for >LANE_CHUNK-lane fleets, so the
#: combined per-lane buffers of a big sweep stay cache-resident.
BIG_FLEET_CHUNK_SAMPLES = 4096

#: A group of structurally equal lanes runs in lockstep when its
#: lane-samples divided by the samples of its longest lane reach this
#: value; below it the lanes run one after another.  One lockstep pass
#: costs about as much as 24 lane samples on the Python backend: the
#: ``BENCH_engine.json`` crossover table (0.05 s rate-table lanes, 2-vCPU
#: x86 host) reads lockstep/lane-by-lane 0.66x at B = 16, 0.95x at
#: B = 24 and 1.20x at B = 32 on Python lanes.  A C lane kernel is native
#: code, which lockstep NumPy never beats at any fleet size in that
#: table, so with a compiler every lane runs on its own kernel.
LOCKSTEP_CROSSOVER = math.inf if COMPILER else 24.0

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

#: Primary/secondary input pairs the lockstep layout stacks on a
#: ``(nc, 2, B)`` axis under one name.
_PAIRS = {
    "ca_off2": ("ca_p_off", "ca_s_off"),
    "ca_noise2": ("ca_p_noise", "ca_s_noise"),
    "pga_off2": ("pga_p_off", "pga_s_off"),
    "pga_noise2": ("pga_p_noise", "pga_s_noise"),
    "adc_gain2": ("adc_p_gain", "adc_s_gain"),
    "adc_off2": ("adc_p_off", "adc_s_off"),
    "adc_noise2": ("adc_p_noise", "adc_s_noise"),
}
_PAIRED = {name for pair in _PAIRS.values() for name in pair}
_LOCKSTEP_INPUTS = tuple(n for n in _LANE_INPUTS if n not in _PAIRED) \
    + tuple(_PAIRS)

_TRACES = (
    "time_tr", "rate_tr", "temp_tr", "out_dps_tr", "out_v_tr", "agc_tr",
    "agc_err_tr", "perr_tr", "vco_tr", "lock_tr", "run_tr",
    "pick_tr", "drive_tr",
)

_HEAD_ARGS = (
    "n0", "nc", "dec", "rec", "record_waveforms", "state", "consts",
    "out_coefs", "out_z", "quad_coefs", "quad_z",
    "ev_starts", "ev_lanes", "ev_coefs",
)

#: Arrays the lane layout's Python backend converts to lists up front
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

_EV_NAMES = ("pa11", "pa12", "pa21", "pa22", "pb1", "pb2",
             "sa11", "sa12", "sa21", "sa22", "sb1", "sb2",
             "pick_gain", "offset_rate", "res_hz")


def kernel_args(lockstep: bool = False) -> Tuple[str, ...]:
    """Argument order of a generated kernel in one layout."""
    inputs = _LOCKSTEP_INPUTS if lockstep else _LANE_INPUTS
    return _HEAD_ARGS + inputs + _TRACES


def kernel_plan(platform) -> Optional[Tuple]:
    """Structural key deciding which specialised kernel a platform needs.

    The :func:`~repro.engine.state.loop_structure` plus ADC noise/INL
    presence.  Two platforms with the same plan share one generated
    kernel (their differing *values* travel through the consts/state
    vectors) and can step in one lockstep fleet.  Returns ``None`` when
    any quantisation site uses ``overflow="error"`` — generated kernels
    cannot raise, so such runs delegate to the reference loop.
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


def _clip(target: str, src: str, lo: str, hi: str, lockstep: bool) -> str:
    """``target = src`` clamped to ``[lo, hi]`` (lower bound checked first)."""
    if lockstep:
        return f"{target} = minimum(maximum({src}, {lo}), {hi})"
    return f"{target} = {lo} if {src} < {lo} else ({hi} if {src} > {hi} else {src})"


def quantizer_lines(var, spec, indent: int, counter,
                    lockstep: bool = False) -> list:
    """Emit the bit-exact inline equivalent of ``var = quantize(var, fmt)``.

    ``spec`` is a :func:`~repro.engine.state.fmt_spec` tuple (``None``
    emits nothing) and ``counter`` a one-element list used to mint
    unique temporaries, so every inlined site assigns fresh names.
    ``floor``/``trunc`` resolve to :mod:`math` in the lane layout
    and to NumPy in the lockstep layout.  Exposed at module level so
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
        lines.append(pad + _clip(r, r, repr(lo), repr(hi), lockstep))
    else:  # wrap ("error" never reaches codegen: kernel_plan -> None)
        span = hi - lo + 1
        lines.append(f"{pad}{r} = (({r} - {lo!r}) % {span!r}) + {lo!r}")
    lines.append(f"{pad}{var} = {r} * {lsb!r}")
    return lines


def generate_kernel_source(plan: Tuple, backend: str,
                           lockstep: bool = False) -> str:
    """Emit the specialised kernel source for one plan, backend and layout.

    The function body is one emit sequence for both layouts; the lane
    layout's two backends differ only in the array-access prelude (the
    ``"python"`` variant reads per-sample data from ``.tolist()`` copies
    while ``"c"`` indexes the ndarrays directly and is then lowered to C
    by :func:`repro.engine.native.lower`).  The lockstep layout runs on
    NumPy and only has the ``"python"`` backend.
    """
    if backend not in ("python", "c"):
        raise ConfigurationError(f"unknown kernel backend {backend!r}")
    if lockstep and backend != "python":
        raise ConfigurationError("the lockstep layout runs on NumPy only")
    (closed, n_out, n_quad, q_nco, q_agc, q_drive, q_demod, q_qc,
     q_out, q_quad, q_off, q_tc, q_scaler,
     has_p_noise, has_s_noise, has_p_inl, has_s_inl) = plan

    lines = []
    emit = lines.append
    counter = [0]

    def quant(var, spec, indent=8):
        lines.extend(quantizer_lines(var, spec, indent, counter, lockstep))

    def clip(target, src, lo, hi, indent=8):
        emit(" " * indent + _clip(target, src, lo, hi, lockstep))

    emit(f"def kernel({', '.join(kernel_args(lockstep))}):")

    # ---- prelude: array access + function binding -------------------------
    if backend == "c":
        for name in _HOT_ARRAYS + ("adc_p_noise", "adc_s_noise"):
            emit(f"    {name}_r = {name}")
    else:
        emit("    floor = _floor; trunc = _trunc")
        emit("    sin = _sin; cos = _cos; rnd = _rnd")
    if lockstep:
        emit("    minimum = _minimum; maximum = _maximum; where = _where")
        for name in _HOT_ARRAYS:
            if name not in _PAIRED and name != "ev_starts":
                emit(f"    {name}_r = {name}")
        emit("    ev_starts_r = ev_starts.tolist()")
        emit("    ev_lanes_r = ev_lanes.tolist()")
        for name in _PAIRS:
            emit(f"    {name}_r = {name}")
    elif backend == "python":
        hot = set(_HOT_ARRAYS)
        if has_p_noise:
            hot.add("adc_p_noise")
        if has_s_noise:
            hot.add("adc_s_noise")
        for name in kernel_args():
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
    if lockstep:
        emit("    st_active = bool((st_state != 4.0).any())")
        # the two acquisition channels run the same block sequence, so
        # they are stacked on a (2, B) axis (primary row, secondary row)
        for name, (p, s) in (
                ("pga_state2", ("pga_p_state", "pga_s_state")),
                ("ca_gain2", ("ca_gain", "ca_gain")),
                ("ca_rail2", ("ca_rail", "ca_rail")),
                ("aa1", ("aa_p1", "aa_s1")), ("aa2", ("aa_p2", "aa_s2")),
                ("pga_gain2", ("pga_p_gain", "pga_s_gain")),
                ("pga_alpha2", ("pga_p_alpha", "pga_s_alpha")),
                ("pga_rail2", ("pga_p_rail", "pga_s_rail")),
                ("trim2", ("trim_p", "trim_s")),
                ("aa_alpha2", ("aa_alpha", "aa_alpha_s")),
                ("adc_kinl2", ("adc_p_kinl", "adc_s_kinl")),
                ("adc_vref2", ("adc_p_vref", "adc_s_vref")),
                ("adc_lsb2", ("adc_p_lsb", "adc_s_lsb")),
                ("adc_cmin2", ("adc_p_cmin", "adc_s_cmin")),
                ("adc_cmax2", ("adc_p_cmax", "adc_s_cmax"))):
            emit(f"    {name} = _array(({p}, {s}))")
        emit("    neg_ca_rail2 = -ca_rail2; neg_pga_rail2 = -pga_rail2")
        emit("    neg_tuning_range = -tuning_range")
    else:
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
    if lockstep:
        # every lane has an event at sample 0 carrying its entry values;
        # the per-lane coefficient rows are updated in place on events
        emit("    _ev = _empty((15, state.shape[1]))")
        emit("    " + ", ".join(_EV_NAMES) + " = _ev")
        emit("    ev_idx = 0")
        emit("    next_ev = int(ev_starts_r[0])")
    else:
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
    if lockstep:
        emit("            while ev_idx < ev_n and ev_starts_r[ev_idx] == j:")
        emit("                _ev[:, ev_lanes_r[ev_idx]] = ev_coefs_r[ev_idx]")
        emit("                ev_idx += 1")
    else:
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
    if lockstep:
        emit("        out = _array((pick_gain * x, pick_gain * y)) * ca_gain2"
             " + ca_off2_r[j] + ca_noise2_r[j]")
        clip("p1", "out", "neg_ca_rail2", "ca_rail2")
        emit("        ideal = (p1 + trim2 + pga_off2_r[j] + pga_noise2_r[j])"
             " * pga_gain2")
        emit("        pga_state2 = pga_state2"
             " + pga_alpha2 * (ideal - pga_state2)")
        clip("p2", "pga_state2", "neg_pga_rail2", "pga_rail2")
        emit("        aa1 = aa1 + aa_alpha2 * (p2 - aa1)")
        emit("        aa2 = aa2 + aa_alpha2 * (aa1 - aa2)")
        emit("        d = aa2 * adc_gain2_r[j] + adc_off2_r[j]")
        if has_p_inl or has_s_inl:
            emit("        nrm = d / adc_vref2")
            clip("nrm", "nrm", "-1.0", "1.0")
            emit("        d = d + adc_kinl2 * (1.0 - nrm * nrm)")
        if has_p_noise or has_s_noise:
            emit("        d = d + adc_noise2_r[j]")
        emit("        code = floor(d / adc_lsb2 + 0.5)")
        clip("code", "code", "adc_cmin2", "adc_cmax2")
        emit("        norm = code * adc_lsb2 / adc_vref2")
        emit("        p_norm = norm[0]")
        emit("        s_norm = norm[1]")
    else:
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
    if lockstep:
        emit("        amplitude = maximum(0.0, 2.0 * amp_state)")
        emit("        mask = amplitude > pll_thr")
        emit("        err = 2.0 * pd_state / maximum(amplitude, pll_thr)")
        emit("        integ = pll_integ + pll_ki * err")
        clip("integ", "integ", "neg_tuning_range", "tuning_range")
        emit("        pll_integ = where(mask, integ, pll_integ)")
        emit("        tuning = pll_kp * err + integ")
        clip("tuning", "tuning", "neg_tuning_range", "tuning_range")
        emit("        tuning = where(mask, tuning, 0.0)")
        emit("        phase_err = where(mask, err, 0.0)")
        emit("        lock_counter = where(mask & (_absolute(err) < lock_thr),"
             " minimum(lock_counter + 1.0, lock_count), 0.0)")
    else:
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
    if lockstep:
        emit("            just_failed = (st_state != 4.0) & ~st_failed"
             " & (cur > wd_samples)")
        emit("            st_failed = st_failed | just_failed")
        emit("            trans = ~just_failed")
        emit("            settled = (agc_err < settle_thr)"
             " & (agc_err > -settle_thr)")
        emit("            new_state = st_state.copy()")
        emit("            new_state[trans & (st_state == 0.0)] = 1.0")
        emit("            new_state[trans & (st_state == 1.0) & locked] = 2.0")
        emit("            m_lock = trans & (st_state == 2.0)")
        emit("            new_state[m_lock & settled] = 3.0")
        emit("            st_settle = where(m_lock & settled, 0.0, st_settle)")
        emit("            new_state[m_lock & ~settled & ~locked] = 1.0")
        emit("            m_set = trans & (st_state == 3.0)")
        emit("            st_settle = where(m_set & settled & locked,"
             " st_settle + 1.0, where(m_set, 0.0, st_settle))")
        emit("            done = m_set & (st_settle >= settle_samples)")
        emit("            new_state[done] = 4.0")
        emit("            st_ready = where(done, cur, st_ready)")
        emit("            st_state = new_state")
        emit("            st_active = bool((st_state != 4.0).any())")
    else:
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
    if lockstep:
        emit("    pga_p_state = pga_state2[0]; pga_s_state = pga_state2[1]")
        emit("    aa_p1 = aa1[0]; aa_s1 = aa1[1]")
        emit("    aa_p2 = aa2[0]; aa_s2 = aa2[1]")
    for name in SCALAR_STATE:
        index = STATE_INDEX[name]
        if name == "overload":
            emit(f"    state[{index}] = _where((aa_p2 >= ov_thr)"
                 " | (-aa_p2 >= ov_thr) | (aa_s2 >= ov_thr)"
                 " | (-aa_s2 >= ov_thr), 1.0, 0.0)" if lockstep else
                 f"    state[{index}] = 1.0 if (aa_p2 >= ov_thr"
                 " or -aa_p2 >= ov_thr or aa_s2 >= ov_thr"
                 " or -aa_s2 >= ov_thr) else 0.0")
        elif name in ("locked", "st_failed") and not lockstep:
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

#: Functions a generated kernel calls, per layout.  The Python backend
#: binds the ``_``-prefixed copies to locals in its prelude.
_LANE_FUNCTIONS = {"floor": math.floor, "trunc": math.trunc,
                   "sin": math.sin, "cos": math.cos, "rnd": round}
_LOCKSTEP_FUNCTIONS = {
    "floor": np.floor, "trunc": np.trunc, "sin": np.sin, "cos": np.cos,
    "rnd": np.rint, "minimum": np.minimum, "maximum": np.maximum,
    "where": np.where, "absolute": np.absolute, "array": np.array,
    "empty": np.empty,
}


#: Lane-kernel arguments passed by value, and the loop names the C
#: lowering keeps as integers and booleans (everything else is a double).
_SCALAR_ARGS = _HEAD_ARGS[:5]
_INT_NAMES = ("j", "i", "rec", "ev_idx", "ev_n", "next_ev", "next_rec", "_b")
_BOOL_NAMES = ("locked", "st_failed", "st_active", "just_failed")
_ARRAY_TYPES = {"ev_starts": "int", "ev_lanes": "int",
                "lock_tr": "bool", "run_tr": "bool"}


def compiled_backend() -> str:
    """Name of the lane-layout backend in use: ``"c"`` or ``"python"``."""
    return BACKEND


def backend_info() -> dict:
    """Provenance record for benchmark artifacts and diagnostics."""
    return {"backend": compiled_backend(),
            "compiler": COMPILER[0] if COMPILER else None,
            "cache_dir": str(native.cache_dir())}


def _python_kernel(plan: Tuple, lockstep: bool = False):
    """The ``exec``-compiled kernel of one plan and layout (cached)."""
    key = (plan, "python", lockstep)
    fn = _KERNELS.get(key)
    if fn is None:
        source = generate_kernel_source(plan, "python", lockstep)
        functions = _LOCKSTEP_FUNCTIONS if lockstep else _LANE_FUNCTIONS
        namespace = dict(functions)
        namespace.update(("_" + name, fn) for name, fn in functions.items())
        layout = "lockstep" if lockstep else "python"
        code = compile(source, f"<repro-compiled-kernel:{layout}>", "exec")
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
            lambda lib: native.bind(lib, kernel_args(), _SCALAR_ARGS,
                                    lengths, _ARRAY_TYPES),
            lambda candidate: _self_check(plan, candidate, platform,
                                          environment))
    except (native.LoweringError, native.BuildError, OSError) as exc:
        warnings.warn(f"compiled engine: no C kernel for this plan, running "
                      f"it on the Python backend ({exc})", RuntimeWarning,
                      stacklevel=4)
        return _python_kernel(plan)


def _compile_kernel(plan: Tuple, backend: Optional[str] = None,
                    lockstep: bool = False, platform=None, environment=None):
    """The specialised kernel for one plan and layout, cached per process.

    The one entry point that adds kernels to the cache.  A C lane kernel
    comes from the on-disk library cache or from a fresh build, which
    must first reproduce the Python kernel on ``platform``'s own
    ``environment`` (:func:`_self_check`), so the first request for a
    plan on the C backend needs both.  Whichever kernel that request
    settles on serves the plan for the rest of the process.
    """
    if lockstep:
        return _python_kernel(plan, lockstep=True)
    backend = backend or compiled_backend()
    if backend != "c":
        return _python_kernel(plan)
    key = (plan, "c", False)
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
    array of ``len(t)`` samples — a fresh row for a lane run, a column
    of the ``(nc, B)`` chunk arrays for a lockstep fleet.  Draws the
    lane's noise and retunes its sensor exactly as the reference loop
    would over the chunk, and returns the sensor's temperature events
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
_NO_LANES = np.zeros(0, dtype=np.int64)


def _trace_arrays(shape, record_waveforms: bool) -> list:
    """Zeroed trace buffers in :data:`_TRACES` order."""
    return [_EMPTY if name in ("pick_tr", "drive_tr") and not record_waveforms
            else np.zeros(shape, dtype=bool if name in ("lock_tr", "run_tr")
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
                         np.array(ev_starts, dtype=np.int64), _NO_LANES,
                         ev_rows.ravel(), *inputs, *traces))
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise SimulationError(
            f"the loop failed in the chunk starting at t = {t[0]:g} s: "
            f"{exc}") from exc
    _check_finite(t[0], state, out_z, quad_z)
    return rec


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
    fs = platform.config.sample_rate_hz
    n = int(round(duration_s * fs))
    dec = platform.config.record_decimation
    start_time = platform._time_s

    arrays = _lane_arrays(platform)
    kernel = _compile_kernel(plan, platform=platform,
                             environment=environment)
    traces = _trace_arrays(n // dec + 1, record_waveforms)
    rec = 0
    chunk = int(chunk_samples) if chunk_samples else CHUNK_SAMPLES
    for n0 in range(0, n, chunk):
        rec = _run_lane_chunk(kernel, platform, environment, n0,
                              min(chunk, n - n0), dec, rec,
                              record_waveforms, arrays, traces)

    state, _, _, out_z, _, quad_z = arrays
    finish_run(platform, state, out_z, quad_z, n, start_time)
    return _result(traces, rec, fs, dec, record_waveforms, platform)


def _run_lockstep(platforms, environments, n_lane: Sequence[int], plan,
                  record_waveforms: bool) -> List[GyroSimulationResult]:
    """Step lanes of one kernel plan and sample grid in NumPy lockstep.

    Lanes are packed longest first, so the lanes still running at any
    sample are a prefix of the columns.  The chunk grid is split at
    every lane's end; a retiring lane's state columns simply stop being
    passed to the kernel, so its state stays where its own run ends and
    its noise generators stop advancing.
    """
    order = sorted(range(len(platforms)), key=lambda b: -n_lane[b])
    lanes = [platforms[b] for b in order]
    envs = [environments[b] for b in order]
    ends = [n_lane[b] for b in order]
    B = len(lanes)
    cfg = lanes[0].config
    fs = cfg.sample_rate_hz
    dt = 1.0 / fs
    dec = cfg.record_decimation
    n = ends[0]
    kernel = _compile_kernel(plan, lockstep=True)

    start_times = [p._time_s for p in lanes]
    consts = np.empty((len(CONSTS), B))
    state = np.empty((len(SCALAR_STATE), B))
    senses = [p.conditioner.sense_chain for p in lanes]
    out_coefs = np.empty((5 * plan[1], B))
    out_z = np.empty((2 * plan[1], B))
    quad_coefs = np.empty((5 * plan[2], B))
    quad_z = np.empty((2 * plan[2], B))
    for b, platform in enumerate(lanes):
        consts[:, b] = gather_consts(platform, start_times[b])
        state[:, b] = pack_scalar_state(platform)
        out_coefs[:, b], out_z[:, b] = biquad_arrays(senses[b].output_filter)
        quad_coefs[:, b], quad_z[:, b] = biquad_arrays(
            senses[b].quadrature_filter)
    check_divisors(consts)
    traces = _trace_arrays((n // dec + 1, B), record_waveforms)
    rec = 0

    chunk = CHUNK_SAMPLES if B <= LANE_CHUNK else BIG_FLEET_CHUNK_SAMPLES
    bounds = sorted(set(range(0, n, chunk)) | set(ends))
    nc_max = max(b1 - b0 for b0, b1 in zip(bounds, bounds[1:]))
    # lane-major storage: each lane's column of an (nc, B) input is
    # contiguous, so the per-lane fill writes whole cache lines
    buffers = {name: np.empty((B, 2, nc_max) if name in _PAIRS
                              else (B, nc_max)).T
               for name in _LOCKSTEP_INPUTS}
    for n0, n1 in zip(bounds, bounds[1:]):
        nc = n1 - n0
        k = sum(1 for end in ends if end > n0)
        t = np.arange(n0, n1) * dt
        ev_starts, ev_lanes, ev_rows = [], [], []
        try:
            for b in range(k):
                out = {name: buffers[name][:nc, b] for name in _LANE_INPUTS
                       if name not in _PAIRED}
                for name, (p, s) in _PAIRS.items():
                    out[p] = buffers[name][:nc, 0, b]
                    out[s] = buffers[name][:nc, 1, b]
                starts, rows = _event_rows(_fill_lane_inputs(
                    lanes[b], envs[b], t, out))
                ev_starts += starts
                ev_lanes += [b] * len(starts)
                ev_rows.append(rows)
            ev_order = np.argsort(ev_starts, kind="stable")
            # NumPy carries a diverging lane on as inf/NaN, like the C
            # backend; the finite check below turns it into an error
            with np.errstate(over="ignore", invalid="ignore",
                             divide="ignore"):
                rec = int(kernel(
                    n0, nc, dec, rec, record_waveforms, state[:, :k],
                    consts[:, :k], out_coefs[:, :k], out_z[:, :k],
                    quad_coefs[:, :k], quad_z[:, :k],
                    np.array(ev_starts, dtype=np.int64)[ev_order],
                    np.array(ev_lanes, dtype=np.int64)[ev_order],
                    np.concatenate(ev_rows)[ev_order],
                    *(buffers[name][:nc, ..., :k]
                      for name in _LOCKSTEP_INPUTS),
                    *(tr if tr is _EMPTY else tr[:, :k] for tr in traces)))
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise SimulationError(
                f"the loop failed in the chunk starting at t = {t[0]:g} s: "
                f"{exc}") from exc
        _check_finite(t[0], state[:, :k], out_z[:, :k], quad_z[:, :k])

    results = [None] * B
    for b, platform in enumerate(lanes):
        finish_run(platform, state[:, b], out_z[:, b], quad_z[:, b],
                   ends[b], start_times[b])
        rl = (ends[b] - 1) // dec + 1
        lane_traces = [tr if tr is _EMPTY else tr[:rl, b].copy()
                       for tr in traces]
        results[order[b]] = _result(lane_traces, rl, fs, dec,
                                    record_waveforms, platform)
    return results


def _fleet_inputs(n_lanes: int, environments, durations_s):
    """Validate and broadcast a fleet's environments and durations."""
    if isinstance(environments, Environment):
        environments = [environments] * n_lanes
    environments = list(environments)
    if isinstance(durations_s, (int, float)):
        durations_s = [durations_s] * n_lanes
    durations_s = [float(d) for d in durations_s]
    if len(environments) != n_lanes or len(durations_s) != n_lanes:
        raise ConfigurationError(
            f"got {len(environments)} environments and {len(durations_s)} "
            f"durations for {n_lanes} fleet lanes")
    if not all(0.0 < d < math.inf for d in durations_s):
        raise ConfigurationError("durations must be finite and > 0")
    return environments, durations_s


def run_compiled_fleet(platforms: Sequence, environments, durations_s,
                       record_waveforms: bool = False):
    """Run a fleet of platforms on the compiled engine.

    Lanes are grouped by ``(kernel_plan, sample_rate_hz,
    record_decimation)``.  A group whose lane-samples divided by the
    samples of its longest lane reach :data:`LOCKSTEP_CROSSOVER` steps in
    NumPy lockstep; every other lane runs on its own specialised kernel,
    with :data:`BIG_FLEET_CHUNK_SAMPLES` time chunks in fleets larger
    than :data:`LANE_CHUNK`.  Either way each lane's traces and final
    state are bit-identical to a standalone run of its own duration, so
    fleets may mix structures, sample rates and durations freely.

    Returns one :class:`~repro.platform.result.GyroSimulationResult` per
    lane.
    """
    environments, durations_s = _fleet_inputs(len(platforms), environments,
                                              durations_s)
    groups = {}
    for index, platform in enumerate(platforms):
        cfg = platform.config
        plan = kernel_plan(platform)
        if plan is not None:
            groups.setdefault((plan, cfg.sample_rate_hz,
                               cfg.record_decimation), []).append(index)
    results = [None] * len(platforms)
    for (plan, fs, _), members in groups.items():
        n_lane = [int(round(durations_s[i] * fs)) for i in members]
        if min(n_lane) > 0 and sum(n_lane) / max(n_lane) >= LOCKSTEP_CROSSOVER:
            for index, result in zip(members, _run_lockstep(
                    [platforms[i] for i in members],
                    [environments[i] for i in members], n_lane, plan,
                    record_waveforms)):
                results[index] = result
    chunk = (CHUNK_SAMPLES if len(platforms) <= LANE_CHUNK
             else BIG_FLEET_CHUNK_SAMPLES)
    for index, platform in enumerate(platforms):
        if results[index] is None:
            results[index] = run_compiled(platform, environments[index],
                                          durations_s[index],
                                          record_waveforms,
                                          chunk_samples=chunk)
    return results


class FleetSimulator:
    """A fleet of :class:`~repro.platform.gyro_platform.GyroPlatform` lanes.

    A thin front over :func:`run_compiled_fleet`: the lanes are ordinary
    platforms whose state is read at the start of a run and written back
    at the end, so fleet runs mix freely with per-platform simulation,
    calibration and register access.  Lanes may differ in values and in
    structure; the fleet layout follows the fleet's shape.
    """

    def __init__(self, platforms: Sequence):
        if not platforms:
            raise ConfigurationError("fleet needs at least one platform")
        self.platforms = list(platforms)

    def __len__(self) -> int:
        return len(self.platforms)

    @classmethod
    def from_config(cls, config, n: int) -> "FleetSimulator":
        """Build a fleet of ``n`` identical platforms from one config."""
        from ..platform.gyro_platform import GyroPlatform
        if n < 1:
            raise ConfigurationError("fleet size must be >= 1")
        return cls([GyroPlatform(copy.deepcopy(config)) for _ in range(n)])

    @classmethod
    def with_part_variation(cls, config, n: int,
                            rng: Optional[np.random.Generator] = None,
                            **spreads) -> "FleetSimulator":
        """Build a Monte-Carlo fleet with part-to-part sensor mismatch.

        Each lane gets a sensor drawn via
        :meth:`GyroParameters.with_part_variation` (its own pick-off
        gain, resonances, offset and noise seed) and a distinct
        front-end noise seed, modelling ``n`` different physical devices
        of the same design.
        """
        from ..platform.gyro_platform import GyroPlatform
        if n < 1:
            raise ConfigurationError("fleet size must be >= 1")
        rng = rng or np.random.default_rng()
        platforms = []
        for _ in range(n):
            cfg = copy.deepcopy(config)
            cfg.sensor = cfg.sensor.with_part_variation(rng, **spreads)
            if cfg.frontend.seed is not None:
                cfg.frontend.seed = int(rng.integers(0, 2 ** 31 - 1))
            platforms.append(GyroPlatform(cfg))
        return cls(platforms)

    def run(self, environments: Union[Environment, Sequence[Environment]],
            duration_s: Union[float, Sequence[float]], reset: bool = False,
            record_waveforms: bool = False) -> List[GyroSimulationResult]:
        """Run every lane for its own duration.

        Args:
            environments: one :class:`Environment` per lane, or a single
                environment applied to all lanes.
            duration_s: a scalar applied to every lane, or one duration
                per lane; each lane's traces and final state equal a
                standalone run of its own length.
            reset: power-cycle every lane before running.
            record_waveforms: record pick-off / drive-word waveforms.

        Returns:
            One :class:`GyroSimulationResult` per lane, bit-identical to
            per-platform reference runs.
        """
        environments, durations = _fleet_inputs(len(self.platforms),
                                                environments, duration_s)
        if reset:
            for p in self.platforms:
                p.reset()
        return run_compiled_fleet(self.platforms, environments, durations,
                                  record_waveforms)
