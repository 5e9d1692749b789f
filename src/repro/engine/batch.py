"""Batched scenario-fleet co-simulation engine.

Where the compiled kernels remove per-sample dispatch for a single
platform, this engine adds a *batch axis*: every piece of closed-loop
state (resonator modes, AFE filter states, PLL integrator/NCO phase,
AGC, demod filters, rebalance, start-up counters, DAC outputs) becomes a
``(B,)`` NumPy array over ``B`` independent platforms stepped in
lockstep.  One pass through the Python interpreter per sample then
advances the whole fleet, amortising the interpreter cost across
scenarios and opening workloads the scalar loop cannot afford: Monte
Carlo mismatch runs, multi-device trim sweeps and simulation-backed
design-space exploration.

Per-lane *values* may differ freely (sensor parameters, noise seeds,
gains, calibration words, environments); only the *structure* must match
across lanes (sample rate, record decimation, loop topology, filter
orders, fixed-point formats) — see
:func:`repro.engine.state.check_fleet_compatible`.

Lane state, constants and biquad states load and store through the
packed schema the compiled engine uses (:mod:`repro.engine.state`): the
per-lane state vectors stacked into an ``(S, B)`` matrix, the constant
vectors into ``(C, B)`` and the flat biquad arrays into ``(2K, B)``, with
the same end-of-run writeback per lane.

Every arithmetic expression replicates the reference chain
operation-for-operation (elementwise IEEE-754 ops are identical to their
scalar counterparts, and ``np.sin``/``np.cos``/``np.rint`` match
``math.sin``/``math.cos``/``round`` bit-for-bit), so each lane's traces
and final platform state are bit-identical to a dedicated
reference-engine run.  Registers are refreshed once at the end of the
run, as in the compiled engine.
"""

from __future__ import annotations

import copy
import math
from typing import List, Optional, Sequence, Union

import numpy as np

from ..common.exceptions import ConfigurationError
from ..gyro.startup import StartupState
from ..platform.result import GyroSimulationResult
from ..sensors.environment import Environment
from .state import (
    array_quantizer,
    biquad_arrays,
    check_fleet_compatible,
    finish_run,
    gather_consts,
    pack_scalar_state,
    sensor_temperature_plan,
)

TWO_PI = 2.0 * math.pi

#: Samples per precompute chunk — bounds the memory of the per-sample
#: stimulus/noise/drift buffers to a few MB per fleet lane block.
CHUNK_SAMPLES = 16384

ST_POWER_ON = StartupState.POWER_ON.value
ST_SPINUP = StartupState.DRIVE_SPINUP.value
ST_LOCKED = StartupState.PLL_LOCKED.value
ST_SETTLING = StartupState.OUTPUT_SETTLING.value
ST_RUNNING = StartupState.RUNNING.value


class FleetSimulator:
    """Steps ``B`` independent gyro platforms in NumPy lockstep.

    The lanes are ordinary :class:`~repro.platform.gyro_platform.GyroPlatform`
    objects: their state is read into the batch axis at the start of a
    run and written back at the end, so fleet runs can be freely mixed
    with per-platform (reference or compiled) simulation, calibration
    and register access.
    """

    def __init__(self, platforms: Sequence):
        check_fleet_compatible(platforms)
        self.platforms = list(platforms)

    def __len__(self) -> int:
        return len(self.platforms)

    # -- constructors -------------------------------------------------------

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

    # -- operation ----------------------------------------------------------

    def run(self, environments: Union[Environment, Sequence[Environment]],
            duration_s: Union[float, Sequence[float]], reset: bool = False,
            record_waveforms: bool = False) -> List[GyroSimulationResult]:
        """Run every lane in lockstep, each for its own duration.

        Args:
            environments: one :class:`Environment` per lane, or a single
                environment applied to all lanes.
            duration_s: how long to simulate — a scalar applied to every
                lane, or one duration per lane.  Lanes with shorter
                durations *retire* at their own end instead of paying
                for the longest lane: their state is frozen at the
                retirement boundary and their noise generators stop
                advancing, so each lane's traces and final state are
                bit-identical to a standalone run of its own length.
            reset: power-cycle every lane before running.
            record_waveforms: record pick-off / drive-word waveforms.

        Returns:
            One :class:`GyroSimulationResult` per lane, bit-identical to
            per-platform reference runs.
        """
        if isinstance(duration_s, (int, float)):
            durations = [float(duration_s)] * len(self.platforms)
        else:
            durations = [float(d) for d in duration_s]
            if len(durations) != len(self.platforms):
                raise ConfigurationError(
                    f"got {len(durations)} durations for "
                    f"{len(self.platforms)} fleet lanes")
        if not all(0.0 < d < math.inf for d in durations):
            raise ConfigurationError("duration must be finite and > 0")
        if isinstance(environments, Environment):
            environments = [environments] * len(self.platforms)
        environments = list(environments)
        if len(environments) != len(self.platforms):
            raise ConfigurationError(
                f"got {len(environments)} environments for "
                f"{len(self.platforms)} fleet lanes")
        if reset:
            for p in self.platforms:
                p.reset()
        return _run_lockstep(self.platforms, environments, durations,
                             record_waveforms)


def _stack_biquads(filters):
    """Per-lane ``(coefs, z)`` of one cascade as ``(5K, B)``/``(2K, B)``."""
    arrays = [biquad_arrays(f) for f in filters]
    return (np.stack([coefs for coefs, _ in arrays], axis=1),
            np.stack([z for _, z in arrays], axis=1))


def _converter_rows(devices):
    """Per-lane ``(k_gain, k_tc, off_v, off_tc)`` drift rows of a converter."""
    cfgs = [d.config for d in devices]
    return (np.array([1.0 + c.gain_error for c in cfgs]),
            np.array([c.gain_tc_ppm_per_c * 1e-6 for c in cfgs]),
            np.array([c.offset_error_v for c in cfgs]),
            np.array([c.offset_tc_v_per_c for c in cfgs]))


def _converter_drift(rows, dt_c):
    """``(gain, offset)`` of one converter over a chunk, ``(nc, B)`` each."""
    k_gain, k_tc, off_v, off_tc = rows
    return k_gain * (1.0 + k_tc * dt_c), off_v + off_tc * dt_c


def _offset_rows(amplifiers):
    """Per-lane ``(offset_v, offset_tc)`` rows of an amplifier."""
    return (np.array([a.config.offset_v for a in amplifiers]),
            np.array([a.config.offset_tc_v_per_c for a in amplifiers]))


def _run_lockstep(platforms, environments, durations_s: Sequence[float],
                  record_waveforms: bool) -> List[GyroSimulationResult]:
    B = len(platforms)
    ref = platforms[0]
    cfg = ref.config
    fs = cfg.sample_rate_hz
    dt = 1.0 / fs
    n_lane = [int(round(d * fs)) for d in durations_s]
    n = max(n_lane)
    dec = cfg.record_decimation
    n_rec = n // dec + 1

    sensors = [p.sensor for p in platforms]
    frontends = [p.frontend for p in platforms]
    senses = [p.conditioner.sense_chain for p in platforms]

    # ---- lane constants, state and biquads in the packed schema -----------
    start_times = [p._time_s for p in platforms]
    consts = np.stack([gather_consts(p, t)
                       for p, t in zip(platforms, start_times)], axis=1)
    state = np.stack([pack_scalar_state(p) for p in platforms], axis=1)
    out_coefs, out_z = _stack_biquads([s.output_filter for s in senses])
    quad_coefs, quad_z = _stack_biquads([s.quadrature_filter for s in senses])

    # ---- constants, unpacked in CONSTS order ------------------------------
    (kq, kc, s_drive_gain, s_control_gain,
     ca_gain, ca_rail, trim_p, trim_s,
     pga_p_gain, pga_s_gain, pga_p_alpha, pga_s_alpha,
     pga_p_rail, pga_s_rail, aa_alpha, aa_alpha_s,
     adc_p_kinl, adc_p_vref, adc_p_lsb, adc_p_cmin, adc_p_cmax,
     adc_s_kinl, adc_s_vref, adc_s_lsb, adc_s_cmin, adc_s_cmax,
     ov_thr,
     ddac_lsb, ddac_vref, ddac_min, ddac_max,
     cdac_lsb, cdac_vref, cdac_min, cdac_max,
     rdac_lsb, rdac_vref, rdac_min, rdac_max,
     mid, out_span, trim_out,
     pd_alpha, amp_alpha, pll_thr, pll_kp, pll_ki,
     lock_thr, lock_count, tuning_range, nco_fc, nco_fs,
     agc_target, agc_kp, agc_ki, agc_min, agc_max, settle_thr,
     demod_alpha, qc_coeff, off_comp, scale_dps, full_scale,
     reb_alpha, reb_kp, reb_ki, reb_limit,
     wd_samples, settle_samples, _, start_time) = consts

    # per-lane drift coefficients for the per-chunk precompute
    ca_off_v, ca_off_tc = _offset_rows([f.primary_charge_amp
                                        for f in frontends])
    pga_p_off_v, pga_p_off_tc = _offset_rows([f.primary_pga
                                              for f in frontends])
    pga_s_off_v, pga_s_off_tc = _offset_rows([f.secondary_pga
                                              for f in frontends])
    adc_p = _converter_rows([f.primary_adc for f in frontends])
    adc_s = _converter_rows([f.secondary_adc for f in frontends])
    ddac = _converter_rows([f.drive_dac for f in frontends])
    cdac = _converter_rows([f.control_dac for f in frontends])
    rdac = _converter_rows([f.rate_output_dac for f in frontends])
    ts_off = np.array([p.config.temperature_sensor.offset_error_c
                       for p in platforms])
    ts_res = np.array([p.config.temperature_sensor.resolution_c
                       for p in platforms])
    tc_offset_polys = [s.temperature_comp.config.offset_poly for s in senses]
    tc_sens_polys = [s.temperature_comp.config.sensitivity_poly for s in senses]

    # quantisation sites: every lane shares lane 0's live formats
    # (check_fleet_compatible compares the loop structures)
    drive_loop = ref.conditioner.drive_loop
    sense = senses[0]
    q_nco = array_quantizer(drive_loop.pll.nco.output_format)
    q_agc = array_quantizer(drive_loop.agc.config.output_format)
    q_drive = array_quantizer(drive_loop.config.output_format)
    q_demod = array_quantizer(sense.demodulator.in_phase.output_format)
    q_qc = array_quantizer(sense.quadrature_cancel.output_format)
    q_out = array_quantizer(sense.output_filter.sections[0].output_format)
    q_quad = array_quantizer(
        sense.quadrature_filter.sections[0].output_format)
    q_off = array_quantizer(sense.offset_comp.output_format)
    q_tc = array_quantizer(sense.temperature_comp.output_format)
    q_scaler = array_quantizer(sense.scaler.output_format)
    closed = cfg.conditioner.closed_loop

    # ---- loop variables, unpacked in SCALAR_STATE order --------------------
    (x, xv, y, yv, pga_p_state, pga_s_state, aa_p1, aa_p2, aa_s1, aa_s2,
     _, pd_state, amp_state, pll_integ, phase_err, amplitude,
     lock_counter, locked, sin_ref, cos_ref, nco_phase, tuning,
     agc_integ, agc_gain, agc_err, di_state, dq_state,
     rate_channel, quad_channel, rate_dps_val, rate_word,
     reb_state, reb_integ, reb_cmd, reb_residual,
     st_state, st_count0, st_settle, st_ready, st_failed,
     drive_v, control_v, drive_word, control_word, rdac_held) = state.copy()
    locked = locked != 0.0
    st_failed = st_failed != 0.0

    # per-section biquad coefficient/state rows: [b0, b1, b2, a1, a2, z1, z2]
    def sections(coefs, z):
        z = z.copy()
        return [[*coefs[5 * k:5 * k + 5], z[2 * k], z[2 * k + 1]]
                for k in range(len(z) // 2)]

    def section_states(secs):
        return np.array([z for sec in secs for z in sec[5:]]).reshape(-1, B)

    out_secs = sections(out_coefs, out_z)
    quad_secs = sections(quad_coefs, quad_z)

    # sensor temperature-dependent coefficients (updated on plan events)
    sens_coef = {key: np.empty(B) for key in
                 ("pa11", "pa12", "pa21", "pa22", "pb1", "pb2",
                  "sa11", "sa12", "sa21", "sa22", "sb1", "sb2",
                  "pick_gain", "offset_rate", "res_hz")}

    def apply_coefs(lane: int, coefs: dict) -> None:
        (sens_coef["pa11"][lane], sens_coef["pa12"][lane],
         sens_coef["pa21"][lane], sens_coef["pa22"][lane],
         sens_coef["pb1"][lane], sens_coef["pb2"][lane]) = coefs["pa"]
        (sens_coef["sa11"][lane], sens_coef["sa12"][lane],
         sens_coef["sa21"][lane], sens_coef["sa22"][lane],
         sens_coef["sb1"][lane], sens_coef["sb2"][lane]) = coefs["sa"]
        sens_coef["pick_gain"][lane] = coefs["pickoff_gain"]
        sens_coef["offset_rate"][lane] = coefs["offset_rate_dps"]
        sens_coef["res_hz"][lane] = coefs["primary_res_hz"]

    # ---- recording buffers (time-major, one column per lane) ---------------
    time_tr = np.zeros((n_rec, B))
    rate_tr = np.zeros((n_rec, B))
    temp_tr = np.zeros((n_rec, B))
    out_dps_tr = np.zeros((n_rec, B))
    out_v_tr = np.zeros((n_rec, B))
    agc_tr = np.zeros((n_rec, B))
    agc_err_tr = np.zeros((n_rec, B))
    perr_tr = np.zeros((n_rec, B))
    vco_tr = np.zeros((n_rec, B))
    lock_tr = np.zeros((n_rec, B), dtype=bool)
    run_tr = np.zeros((n_rec, B), dtype=bool)
    pick_tr = np.zeros((n_rec, B)) if record_waveforms else None
    drive_tr = np.zeros((n_rec, B)) if record_waveforms else None
    rec = 0

    where = np.where
    concat = np.concatenate
    np_round = np.rint      # same half-to-even values, raw-ufunc dispatch
    np_floor = np.floor
    np_minimum = np.minimum
    np_maximum = np.maximum

    def clip(a, lo, hi):
        # np.clip's python wrapper costs ~4us per call at B=32; the raw
        # minimum/maximum ufuncs compute the identical values
        return np_minimum(np_maximum(a, lo), hi)
    np_sin = np.sin
    np_cos = np.cos
    m_pi = math.pi
    np_pi = np.pi

    # the two acquisition channels run the same block sequence, so they are
    # stacked on a (2B,) axis (primary lanes first, secondary lanes after)
    # and advanced with one set of elementwise ops per block
    ca_gain2 = concat((ca_gain, ca_gain))
    ca_rail2 = concat((ca_rail, ca_rail))
    pga_gain2 = concat((pga_p_gain, pga_s_gain))
    pga_alpha2 = concat((pga_p_alpha, pga_s_alpha))
    pga_rail2 = concat((pga_p_rail, pga_s_rail))
    trim2 = concat((trim_p, trim_s))
    aa_alpha2 = concat((aa_alpha, aa_alpha_s))
    adc_vref2 = concat((adc_p_vref, adc_s_vref))
    adc_lsb2 = concat((adc_p_lsb, adc_s_lsb))
    adc_kinl2 = concat((adc_p_kinl, adc_s_kinl))
    adc_cmin2 = concat((adc_p_cmin, adc_s_cmin))
    adc_cmax2 = concat((adc_p_cmax, adc_s_cmax))
    pga_state2 = concat((pga_p_state, pga_s_state))
    aa1 = concat((aa_p1, aa_s1))
    aa2 = concat((aa_p2, aa_s2))

    # hoisted per-sample constants (dict lookups out of the hot loop)
    pa11 = sens_coef["pa11"]; pa12 = sens_coef["pa12"]
    pa21 = sens_coef["pa21"]; pa22 = sens_coef["pa22"]
    pb1 = sens_coef["pb1"]; pb2 = sens_coef["pb2"]
    sa11 = sens_coef["sa11"]; sa12 = sens_coef["sa12"]
    sa21 = sens_coef["sa21"]; sa22 = sens_coef["sa22"]
    sb1 = sens_coef["sb1"]; sb2 = sens_coef["sb2"]
    pick_gain = sens_coef["pick_gain"]
    offset_rate = sens_coef["offset_rate"]
    res_hz = sens_coef["res_hz"]

    # the PLL's two detector filters (pd: x*cos, amp: x*sin) and the sense
    # demodulator's I/Q filters share their per-lane alphas pairwise, so each
    # pair is advanced as one (2B,) one-pole update against the stacked
    # (cos, sin) reference vector
    pll_alpha2 = concat((pd_alpha, amp_alpha))
    pll_state2 = concat((pd_state, amp_state))
    demod_alpha2 = concat((demod_alpha, demod_alpha))
    demod_state2 = concat((di_state, dq_state))

    zero_b = np.zeros(B)
    startup_active = bool(np.any(st_state != ST_RUNNING))
    sample_idx = 0

    # ---- per-lane early exit ----------------------------------------------
    # Lanes whose duration ends before the longest lane *retire*: the chunk
    # grid is split so every retirement lands on a chunk end, where the
    # loop variables are stored back into the packed schema and the
    # retiring lanes' columns are kept; from then on their noise
    # generators stop being consumed.  The lane's column keeps evolving
    # with frozen stimulus — elementwise garbage that is discarded — so
    # the lockstep loop needs no per-sample masking and live lanes are
    # untouched bit-for-bit.  ``state``/``out_z``/``quad_z`` end up holding
    # every lane's state at its own end.
    bounds = sorted(set(range(0, n, CHUNK_SAMPLES))
                    | {ni for ni in n_lane if ni < n} | {n})
    ends = set(n_lane)

    # ---- chunked lockstep loop --------------------------------------------
    for chunk_start, chunk_end in zip(bounds, bounds[1:]):
        nc = chunk_end - chunk_start
        alive = [ni > chunk_start for ni in n_lane]
        t_arr = (np.arange(chunk_start, chunk_start + nc)) * dt

        # stimulus, drift and noise precompute, time-major (nc, B)
        rate_ch = np.empty((nc, B))
        temp_ch = np.empty((nc, B))
        events = {}
        for lane, env in enumerate(environments):
            if not alive[lane]:
                # frozen stimulus; the column's evolution is discarded
                rate_ch[:, lane] = 0.0
                temp_ch[:, lane] = 25.0
                continue
            r_lane, t_lane = env.sample(t_arr)
            rate_ch[:, lane] = r_lane
            temp_ch[:, lane] = t_lane
            for idx, coefs in sensor_temperature_plan(sensors[lane], t_lane):
                if idx == 0:
                    apply_coefs(lane, coefs)
                else:
                    events.setdefault(idx, []).append((lane, coefs))
        event_queue = sorted(events)
        next_ev = event_queue[0] if event_queue else -1
        ev_ptr = 0
        dt_c = temp_ch - 25.0
        meas = np.round((temp_ch + ts_off) / ts_res) * ts_res
        dtm = meas - 25.0

        ca_off = ca_off_v + ca_off_tc * dt_c
        ca_off2 = concat((ca_off, ca_off), axis=1)
        pga_off2 = concat((pga_p_off_v + pga_p_off_tc * dt_c,
                           pga_s_off_v + pga_s_off_tc * dt_c), axis=1)
        adc_p_gain, adc_p_off = _converter_drift(adc_p, dt_c)
        adc_s_gain, adc_s_off = _converter_drift(adc_s, dt_c)
        adc_gain2 = concat((adc_p_gain, adc_s_gain), axis=1)
        adc_off2 = concat((adc_p_off, adc_s_off), axis=1)
        ddac_gain, ddac_offs = _converter_drift(ddac, dt_c)
        cdac_gain, cdac_offs = _converter_drift(cdac, dt_c)
        rdac_gain, rdac_offs = _converter_drift(rdac, dt_c)
        if not closed:
            # open loop: the control word is identically zero, so the whole
            # control-DAC chain can be evaluated for the chunk up front
            # (0.0 quantises to code 0 -> output = offset, clipped)
            control_v_ch = clip(0.0 * cdac_gain + cdac_offs,
                                cdac_min, cdac_max)

        tcomp_off = np.zeros((nc, B))
        tcomp_sens = np.zeros((nc, B))
        for lane in range(B):
            if not alive[lane]:
                continue        # leaves off=0, sens=1: never trips the check
            acc = np.zeros(nc)
            for i, coef in enumerate(tc_offset_polys[lane]):
                acc = acc + coef * dtm[:, lane] ** i
            tcomp_off[:, lane] = acc
            acc = np.zeros(nc)
            for i, coef in enumerate(tc_sens_polys[lane]):
                acc = acc + coef * dtm[:, lane] ** (i + 1)
            tcomp_sens[:, lane] = acc
        tcomp_sens = 1.0 + tcomp_sens
        if np.any(tcomp_sens == 0.0):
            raise ConfigurationError(
                "sensitivity correction factor reached zero")

        # retired lanes' generators must not advance: a later standalone
        # run from the written-back platform state has to see the same
        # noise stream a never-batched platform would
        zeros_nc = np.zeros(nc)

        def lane_noise(noises):
            return np.stack([nz.take(nc) if alive[k] else zeros_nc
                             for k, nz in enumerate(noises)], axis=1)

        sens_noise = lane_noise([s._noise for s in sensors])
        # Coriolis rate input precompute: with no temperature events in the
        # chunk, offset_rate is constant, so the per-sample sum can be done
        # vectorised up front (same elementwise op order as the scalar path)
        eff_ch = ((rate_ch + offset_rate + sens_noise) * m_pi / 180.0
                  if not events else None)
        ca_noise2 = np.concatenate(
            [lane_noise([f.primary_charge_amp._noise for f in frontends]),
             lane_noise([f.secondary_charge_amp._noise for f in frontends])],
            axis=1)
        pga_noise2 = np.concatenate(
            [lane_noise([f.primary_pga._noise for f in frontends]),
             lane_noise([f.secondary_pga._noise for f in frontends])], axis=1)
        adc_noise2 = np.concatenate(
            [lane_noise([f.primary_adc._noise for f in frontends]),
             lane_noise([f.secondary_adc._noise for f in frontends])], axis=1)

        for j in range(nc):
            i = sample_idx
            sample_idx += 1
            if j == next_ev:
                for lane, coefs in events[j]:
                    apply_coefs(lane, coefs)
                ev_ptr += 1
                next_ev = event_queue[ev_ptr] \
                    if ev_ptr < len(event_queue) else -1

            # MEMS sensor
            drive_accel = s_drive_gain * drive_v
            x_new = pa11 * x + pa12 * xv + pb1 * drive_accel
            xv = pa21 * x + pa22 * xv + pb2 * drive_accel
            x = x_new
            if eff_ch is not None:
                eff = eff_ch[j]
            else:
                eff = (rate_ch[j] + offset_rate + sens_noise[j]) \
                    * m_pi / 180.0
            sacc = kc * eff * xv + kq * x * 2.0 * np_pi * res_hz \
                + s_control_gain * control_v
            y_new = sa11 * y + sa12 * yv + sb1 * sacc
            yv = sa21 * y + sa22 * yv + sb2 * sacc
            y = y_new

            # AFE acquisition, both channels stacked on the (2B,) axis
            pick = concat((pick_gain * x, pick_gain * y))
            out = pick * ca_gain2 + ca_off2[j] + ca_noise2[j]
            p1 = clip(out, -ca_rail2, ca_rail2)
            ideal = (p1 + trim2 + pga_off2[j] + pga_noise2[j]) * pga_gain2
            pga_state2 = pga_state2 + pga_alpha2 * (ideal - pga_state2)
            p2 = clip(pga_state2, -pga_rail2, pga_rail2)
            aa1 = aa1 + aa_alpha2 * (p2 - aa1)
            aa2 = aa2 + aa_alpha2 * (aa1 - aa2)

            d = aa2 * adc_gain2[j] + adc_off2[j]
            nrm = clip(d / adc_vref2, -1.0, 1.0)
            d = d + adc_kinl2 * (1.0 - nrm * nrm) + adc_noise2[j]
            code = clip(np_floor(d / adc_lsb2 + 0.5), adc_cmin2, adc_cmax2)
            norm = code * adc_lsb2 / adc_vref2
            p_norm = norm[:B]
            s_norm = norm[B:]

            # drive PLL
            ref2 = concat((cos_ref, sin_ref))
            p_norm2 = concat((p_norm, p_norm))
            pll_state2 = pll_state2 \
                + pll_alpha2 * (p_norm2 * ref2 - pll_state2)
            pd_state = pll_state2[:B]
            amplitude = np.maximum(0.0, 2.0 * pll_state2[B:])
            mask = amplitude > pll_thr
            err = 2.0 * pd_state / np.maximum(amplitude, pll_thr)
            integ_cand = clip(pll_integ + pll_ki * err,
                              -tuning_range, tuning_range)
            pll_integ = where(mask, integ_cand, pll_integ)
            tuning = where(mask, clip(pll_kp * err + integ_cand,
                                      -tuning_range, tuning_range), 0.0)
            phase_err = where(mask, err, 0.0)
            lock_counter = where(mask & (np.abs(err) < lock_thr),
                                 np.minimum(lock_counter + 1, lock_count), 0)
            locked = lock_counter >= lock_count
            nco_phase = (nco_phase + TWO_PI * (nco_fc + tuning) / nco_fs) \
                % TWO_PI
            sin_ref = np_sin(nco_phase)
            cos_ref = np_cos(nco_phase)
            if q_nco is not None:
                sin_ref = q_nco(sin_ref)
                cos_ref = q_nco(cos_ref)

            # AGC
            agc_err = agc_target - amplitude
            agc_integ = clip(agc_integ + agc_ki * agc_err, agc_min, agc_max)
            agc_gain = clip(agc_kp * agc_err + agc_integ, agc_min, agc_max)
            if q_agc is not None:
                agc_gain = q_agc(agc_gain)
            drive_word = agc_gain * cos_ref
            if q_drive is not None:
                drive_word = q_drive(drive_word)

            # sense chain
            ref2 = concat((cos_ref, sin_ref))
            s_norm2 = concat((s_norm, s_norm))
            demod_state2 = demod_state2 \
                + demod_alpha2 * (s_norm2 * ref2 - demod_state2)
            chan2 = 2.0 * demod_state2
            if q_demod is not None:
                chan2 = q_demod(chan2)
            i_chan = chan2[:B]
            q_chan = chan2[B:]
            v = i_chan - qc_coeff * q_chan
            if q_qc is not None:
                v = q_qc(v)
            for sec in out_secs:
                yy = sec[0] * v + sec[5]
                sec[5] = sec[1] * v - sec[3] * yy + sec[6]
                sec[6] = sec[2] * v - sec[4] * yy
                if q_out is not None:
                    yy = q_out(yy)
                v = yy
            rate_channel = v
            v = q_chan
            for sec in quad_secs:
                yy = sec[0] * v + sec[5]
                sec[5] = sec[1] * v - sec[3] * yy + sec[6]
                sec[6] = sec[2] * v - sec[4] * yy
                if q_quad is not None:
                    yy = q_quad(yy)
                v = yy
            quad_channel = v
            comp = rate_channel - off_comp
            if q_off is not None:
                comp = q_off(comp)
            comp = (comp - tcomp_off[j]) / tcomp_sens[j]
            if q_tc is not None:
                comp = q_tc(comp)
            rate_dps_val = comp * scale_dps
            rate_word = clip(rate_dps_val / full_scale, -1.0, 1.0)
            if q_scaler is not None:
                rate_word = q_scaler(rate_word)

            # force rebalance
            if closed:
                reb_state = reb_state \
                    + reb_alpha * (s_norm * cos_ref - reb_state)
                reb_residual = 2.0 * reb_state
                reb_integ = clip(reb_integ + reb_ki * reb_residual,
                                 -reb_limit, reb_limit)
                reb_cmd = clip(reb_kp * reb_residual + reb_integ,
                               -reb_limit, reb_limit)
                control_word = -reb_cmd * cos_ref
                out_dps = reb_cmd * scale_dps
                out_word = clip(out_dps / full_scale, -1.0, 1.0)
                if q_scaler is not None:
                    out_word = q_scaler(out_word)
            else:
                control_word = zero_b
                out_dps = rate_dps_val
                out_word = rate_word

            # start-up sequencer (skipped once every lane is RUNNING:
            # RUNNING is terminal, only the sample counter keeps advancing,
            # and that is stored as st_count0 + samples at each chunk end)
            if startup_active:
                cur_count = st_count0 + (i + 1)
                active = (st_state != ST_RUNNING) & ~st_failed
                just_failed = active & (cur_count > wd_samples)
                st_failed = st_failed | just_failed
                trans = ~just_failed
                settled = (agc_err < settle_thr) & (agc_err > -settle_thr)
                new_state = st_state.copy()
                new_state[trans & (st_state == ST_POWER_ON)] = ST_SPINUP
                new_state[trans & (st_state == ST_SPINUP) & locked] = ST_LOCKED
                m_lock = trans & (st_state == ST_LOCKED)
                m = m_lock & settled
                new_state[m] = ST_SETTLING
                st_settle = where(m, 0, st_settle)
                new_state[m_lock & ~settled & ~locked] = ST_SPINUP
                m_set = trans & (st_state == ST_SETTLING)
                st_settle = where(m_set & settled & locked, st_settle + 1,
                                  where(m_set, 0, st_settle))
                done = m_set & (st_settle >= settle_samples)
                new_state[done] = ST_RUNNING
                st_ready = where(done, cur_count, st_ready)
                st_state = new_state
                if done.any():
                    startup_active = bool(np.any(st_state != ST_RUNNING))

            # drive / control DACs
            qd = np_round(clip(drive_word, -1.0, 1.0) * ddac_vref
                          / ddac_lsb) * ddac_lsb
            drive_v = clip(qd * ddac_gain[j] + ddac_offs[j],
                           ddac_min, ddac_max)
            if closed:
                qd = np_round(clip(control_word, -1.0, 1.0) * cdac_vref
                              / cdac_lsb) * cdac_lsb
                control_v = clip(qd * cdac_gain[j] + cdac_offs[j],
                                 cdac_min, cdac_max)
            else:
                control_v = control_v_ch[j]

            # trace recording (decimated)
            if not i % dec:
                target = (mid + clip(out_word, -1.0, 1.0) * out_span
                          + trim_out) / rdac_vref
                qd = np_round(clip(target, 0.0, 1.0) * rdac_vref
                              / rdac_lsb) * rdac_lsb
                rdac_held = clip(qd * rdac_gain[j] + rdac_offs[j],
                                 rdac_min, rdac_max)
                time_tr[rec] = start_time + i * dt
                rate_tr[rec] = rate_ch[j]
                temp_tr[rec] = temp_ch[j]
                out_dps_tr[rec] = out_dps
                out_v_tr[rec] = rdac_held
                agc_tr[rec] = agc_gain
                agc_err_tr[rec] = agc_err
                perr_tr[rec] = phase_err
                vco_tr[rec] = pll_integ
                lock_tr[rec] = locked
                run_tr[rec] = st_state == ST_RUNNING
                if record_waveforms:
                    pick_tr[rec] = p_norm
                    drive_tr[rec] = drive_word
                rec += 1

        if chunk_end in ends:
            # store the loop variables in SCALAR_STATE order and keep the
            # columns of the lanes that end at this boundary; the overload
            # flag is only observable through the final register state, so
            # it is evaluated here from the last anti-alias outputs
            overload = ((np.abs(aa2[:B]) >= ov_thr)
                        | (np.abs(aa2[B:]) >= ov_thr))
            live = np.array((
                x, xv, y, yv, pga_state2[:B], pga_state2[B:],
                aa1[:B], aa2[:B], aa1[B:], aa2[B:], overload,
                pll_state2[:B], pll_state2[B:], pll_integ, phase_err,
                amplitude, lock_counter, locked, sin_ref, cos_ref,
                nco_phase, tuning, agc_integ, agc_gain, agc_err,
                demod_state2[:B], demod_state2[B:],
                rate_channel, quad_channel, rate_dps_val, rate_word,
                reb_state, reb_integ, reb_cmd, reb_residual,
                st_state, st_count0 + chunk_end, st_settle, st_ready,
                st_failed, drive_v, control_v, drive_word, control_word,
                rdac_held), dtype=float)
            ending = [lane for lane in range(B) if n_lane[lane] == chunk_end]
            state[:, ending] = live[:, ending]
            out_z[:, ending] = section_states(out_secs)[:, ending]
            quad_z[:, ending] = section_states(quad_secs)[:, ending]

    # ---- write state back and slice the per-lane results -------------------
    # a retired lane's trace stops at its own retirement row; anything a
    # longer lane recorded past that point in its column is garbage
    results = []
    for lane, platform in enumerate(platforms):
        finish_run(platform, state[:, lane], out_z[:, lane], quad_z[:, lane],
                   n_lane[lane], start_times[lane])
        rl = (n_lane[lane] - 1) // dec + 1
        results.append(GyroSimulationResult(
            time_s=time_tr[:rl, lane].copy(),
            sample_rate_hz=fs / dec,
            true_rate_dps=rate_tr[:rl, lane].copy(),
            temperature_c=temp_tr[:rl, lane].copy(),
            rate_output_dps=out_dps_tr[:rl, lane].copy(),
            rate_output_v=out_v_tr[:rl, lane].copy(),
            amplitude_control=agc_tr[:rl, lane].copy(),
            amplitude_error=agc_err_tr[:rl, lane].copy(),
            phase_error=perr_tr[:rl, lane].copy(),
            vco_control=vco_tr[:rl, lane].copy(),
            pll_locked=lock_tr[:rl, lane].copy(),
            running=run_tr[:rl, lane].copy(),
            primary_pickoff_norm=(pick_tr[:rl, lane].copy()
                                  if record_waveforms else None),
            drive_word=(drive_tr[:rl, lane].copy()
                        if record_waveforms else None),
            turn_on_time_s=platform.conditioner.startup.turn_on_time_s,
        ))
    return results
