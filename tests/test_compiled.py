"""Tests for the compiled (generated-kernel) engine (``repro.engine.compiled``).

The cross-engine bit-identity suites in ``test_engine.py`` and
``test_faults.py`` already run the ``"compiled"`` engine against the
reference loop; this module locks the pieces that make that possible:

* the inline quantiser snippets emitted into generated kernels are
  bit-exact against :func:`repro.common.fixedpoint.quantize`
  (Hypothesis property over formats, rounding and overflow modes);
* any valid packed scalar-state vector round-trips through unpack/pack
  as the Python types a fresh platform holds (Hypothesis property over
  the state table's slot kinds), and runs are invariant to the kernel's
  time chunk;
* campaign lanes of different structures match their reference runs,
  and a campaign rejects mismatched lane counts, bad durations and bad
  stop-check intervals;
* a ragged campaign round is one fleet call over all its lanes, and
  campaign lanes that retire at different rounds agree with per-lane
  reference replays (Hypothesis property over structures, backends and
  durations);
* plans with ``overflow="error"`` sites delegate to the reference loop,
  which raises on a real overflow on every engine;
* backend provenance reports whichever of C / generated-Python is
  actually active;
* both backends run one generated source with one signature, the C
  lowering is bit-exact against the ``exec``-compiled source on every
  quantiser variant, float ``%`` and ``round``, read through whole-array
  and row views (Hypothesis), and refuses views it cannot lower, and
  the on-disk build cache loads warm libraries without starting a
  process, rebuilds corrupted ones, survives concurrent builders and
  hosts without glibc, starts the compiler at most once per plan and
  process (also for a platform that does not pickle or a stimulus the
  Python kernel rejects) and keeps a plan whose build fails its
  self-check on Python.
"""

import copy
import dataclasses
import hashlib
import inspect
import math
import os
import pickle
import subprocess
import sys
from operator import attrgetter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strategies.settings import DETERMINISM_SETTINGS, QUICK_SETTINGS, \
    STANDARD_SETTINGS

from repro.common import ConfigurationError, FixedPointOverflowError
from repro.common.noise import BufferedGaussianNoise
from repro.common.fixedpoint import QFormat, quantize
from repro.engine import backend_info, compiled_backend, run_compiled
import repro
from repro.engine import compiled, native
from repro.engine.compiled import _compile_kernel, kernel_plan, \
    quantizer_lines
from repro.engine.state import STATE_TABLE, fmt_spec, pack_scalar_state, \
    unpack_scalar_state
from repro.faults.models import StuckAdcCode
from repro.gyro.startup import StartupState
from repro.platform import GyroPlatform, GyroPlatformConfig
from repro.scenarios import (
    Campaign,
    Scenario,
    bandwidth_probe_scenario,
    fault_scenario,
    noise_floor_scenario,
    settled_output_scenario,
    startup_complete,
)
from repro.scenarios.engines import EngineSpec
from repro.sensors import Environment

requires_compiler = pytest.mark.skipif(compiled.COMPILER is None,
                                       reason="no C compiler found")


def _exec_quantizer(fmt: QFormat):
    """Build a callable from the exact snippet the codegen would inline."""
    spec = fmt_spec(fmt)
    lines = ["def q(x):"] + quantizer_lines("x", spec, 4, [0]) \
        + ["    return x"]
    namespace = {"floor": math.floor, "trunc": math.trunc}
    exec("\n".join(lines), namespace)
    return namespace["q"]


_formats = st.tuples(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=16),
    st.booleans(),
    st.sampled_from(("nearest", "floor", "truncate")),
    st.sampled_from(("saturate", "wrap")),
).filter(lambda t: t[0] + t[1] > 0).map(lambda t: QFormat(*t))


class TestQuantizerCodegen:
    @settings(max_examples=300, deadline=None)
    @given(fmt=_formats,
           value=st.floats(min_value=-1e5, max_value=1e5,
                           allow_nan=False, allow_infinity=False))
    def test_inline_quantizer_matches_fixedpoint(self, fmt, value):
        q = _exec_quantizer(fmt)
        expected = quantize(value, fmt)
        got = q(value)
        # Bit-exact for every non-zero result.  The one tolerated
        # deviation is the sign of zero: math.floor/math.trunc return
        # ints, so the inline form maps -0.0 to +0.0 where the numpy
        # path keeps -0.0.  The two are ``==``-equal, and generated
        # kernels never route quantised signals into sign-of-zero
        # sensitive operations, so traces stay array_equal-identical.
        assert got == expected
        if expected != 0.0:
            assert math.copysign(1.0, got) == math.copysign(1.0, expected)

    def test_none_spec_emits_nothing(self):
        assert quantizer_lines("x", None, 4, [0]) == []

    def test_temporaries_are_unique_per_site(self):
        fmt = QFormat(3, 8)
        counter = [0]
        a = "\n".join(quantizer_lines("x", fmt_spec(fmt), 0, counter))
        b = "\n".join(quantizer_lines("y", fmt_spec(fmt), 0, counter))
        assert "_s0" in a and "_s1" in b
        assert counter[0] == 2


class TestPlanAndBackend:
    def test_plan_is_structural(self):
        a = GyroPlatform(GyroPlatformConfig())
        b = GyroPlatform(GyroPlatformConfig())
        plan = kernel_plan(a)
        assert plan is not None
        assert plan == kernel_plan(b)

    def test_kernel_cache_reuse(self):
        platform = GyroPlatform(GyroPlatformConfig())
        plan = kernel_plan(platform)
        first = _compile_kernel(plan, platform=platform,
                                environment=Environment.still())
        assert _compile_kernel(plan) is first

    def test_first_c_request_needs_a_platform(self, monkeypatch):
        monkeypatch.setattr(compiled, "_KERNELS", {})
        plan = kernel_plan(GyroPlatform())
        with pytest.raises(ValueError, match="self-check"):
            _compile_kernel(plan, "c")

    @pytest.mark.parametrize("variant", ["default", "closed_loop",
                                         "fixed_point", "adc_noise_off"])
    def test_both_backends_run_one_source(self, variant, monkeypatch):
        cfg = GyroPlatformConfig()
        if variant == "adc_noise_off":
            cfg.frontend.adc.noise_rms_v = 0.0  # the INL stays on
        elif variant != "default":
            setattr(cfg.conditioner, variant, True)
        platform = GyroPlatform(cfg)
        plan = kernel_plan(platform)
        executed, lowered = [], []
        lower = native.lower

        def spy_compile(source, *args):
            executed.append(source)
            return compile(source, *args)

        def spy_lower(source, *args):
            lowered.append(source)
            return lower(source, *args)

        monkeypatch.setattr(compiled, "compile", spy_compile, raising=False)
        monkeypatch.setattr(native, "lower", spy_lower)
        monkeypatch.setattr(native, "load_or_build", lambda *args: "built")
        monkeypatch.setattr(compiled, "_KERNELS", {})
        python = compiled._python_kernel(plan)
        assert compiled._native_kernel(plan, platform,
                                       Environment.still()) == "built"
        assert len(executed) == 1 and executed == lowered
        assert tuple(inspect.signature(python).parameters) == (
            "n0", "nc", "dec", "rec", "record_waveforms", "lane",
            "ev_starts", "ev_coefs", "inputs", "floats", "flags", "noise")

    def test_backend_provenance(self):
        assert compiled_backend() == ("c" if compiled.COMPILER else "python")
        info = backend_info()
        assert info["backend"] == compiled_backend()
        assert info["compiler"] == (compiled.COMPILER[0]
                                    if compiled.COMPILER else None)
        assert Path(info["cache_dir"]) == native.cache_dir()

    def test_error_overflow_plan_delegates_to_reference(self):
        cfg = GyroPlatformConfig()
        cfg.conditioner.fixed_point = True
        com = GyroPlatform(copy.deepcopy(cfg))
        ref = GyroPlatform(copy.deepcopy(cfg))
        for platform in (com, ref):
            scaler = platform.conditioner.sense_chain.scaler
            scaler.output_format = dataclasses.replace(
                scaler.output_format, overflow="error")
        assert kernel_plan(com) is None
        env = Environment.still()
        r_com = run_compiled(com, env, 0.05)
        r_ref = ref.run(env, 0.05, engine="reference")
        np.testing.assert_array_equal(r_com.rate_output_dps,
                                      r_ref.rate_output_dps)
        np.testing.assert_array_equal(r_com.amplitude_control,
                                      r_ref.amplitude_control)
        assert com.now == ref.now
        np.testing.assert_array_equal(pack_scalar_state(com),
                                      pack_scalar_state(ref))
        assert (com.conditioner.registers.dump()
                == ref.conditioner.registers.dump())

    def test_error_overflow_format_raises_on_every_engine(self):
        # Q0.14 cannot hold the NCO's +1.0 peak: with overflow="error"
        # every engine must surface the overflow rather than saturate
        def platform():
            p = GyroPlatform()
            p.conditioner.drive_loop.pll.nco.output_format = QFormat(
                0, 14, overflow="error")
            return p

        with pytest.raises(FixedPointOverflowError):
            platform().run(Environment.still(), 0.05)
        with pytest.raises(FixedPointOverflowError):
            platform().run(Environment.still(), 0.05, engine="reference")
        with pytest.raises(FixedPointOverflowError):
            Campaign([Scenario("overflow", Environment.still(), 0.05)]).run(
                platforms=[platform()])


#: A valid value of each state-table slot kind, as a packed float.
_SLOT_VALUES = {
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "count": st.integers(0, 2 ** 53).map(float),
    "flag": st.sampled_from([0.0, 1.0]),
    "state": st.integers(0, 4).map(float),
    "ready": st.just(-1.0) | st.integers(0, 2 ** 53).map(float),
}
_state_vectors = st.tuples(*(_SLOT_VALUES[kind] for _, kind, *_ in
                             STATE_TABLE)).map(np.array)
#: The Python type each slot kind unpacks to (``ready``: int or None).
_SLOT_TYPES = {"float": float, "count": int, "flag": bool,
               "state": StartupState}


class TestPackedState:
    @STANDARD_SETTINGS
    @given(packed=_state_vectors)
    @example(packed=None)
    def test_pack_unpack_round_trip(self, packed):
        """A valid vector unpacked into a fresh platform packs back to the
        same bytes, as the types a fresh platform holds; ``None`` stands
        for the state a reference run leaves."""
        if packed is None:
            source = GyroPlatform(GyroPlatformConfig())
            source.run(Environment.constant_rate(60.0), 0.04,
                       engine="reference")
            packed = pack_scalar_state(source)

        fresh = GyroPlatform(GyroPlatformConfig())
        target = GyroPlatform(GyroPlatformConfig())
        unpack_scalar_state(target, packed)
        assert pack_scalar_state(target).tobytes() == packed.tobytes()
        for index, (name, kind, *paths) in enumerate(STATE_TABLE):
            for path in paths:
                if kind == "ready":
                    assert attrgetter(path)(fresh) is None
                    expected = type(None) if packed[index] < 0.0 else int
                else:
                    expected = _SLOT_TYPES[kind]
                    assert type(attrgetter(path)(fresh)) is expected, name
                assert type(attrgetter(path)(target)) is expected, name
            if name == "overload":
                assert target.frontend.trim.register("afe_status") \
                    .read_field("overload") == packed[index]

    def test_chunk_size_invariance(self, monkeypatch):
        env = Environment.constant_rate(75.0)
        a = GyroPlatform(GyroPlatformConfig())
        b = GyroPlatform(GyroPlatformConfig())
        r_a = run_compiled(a, env, 0.06)
        monkeypatch.setattr(compiled, "CHUNK_SAMPLES", 997)
        r_b = run_compiled(b, env, 0.06)
        np.testing.assert_array_equal(r_a.rate_output_dps,
                                      r_b.rate_output_dps)
        np.testing.assert_array_equal(pack_scalar_state(a),
                                      pack_scalar_state(b))


class TestCompiledFleet:
    def test_heterogeneous_lanes_match_reference(self, kernel_backend):
        open_cfg = GyroPlatformConfig()
        closed_cfg = GyroPlatformConfig()
        closed_cfg.conditioner.closed_loop = True
        fixed_cfg = GyroPlatformConfig()
        fixed_cfg.conditioner.fixed_point = True
        configs = [open_cfg, closed_cfg, fixed_cfg]
        envs = [Environment.still(),
                Environment.constant_rate(120.0),
                Environment.constant_rate(-40.0)]
        refs = [GyroPlatform(copy.deepcopy(cfg)).run(env, 0.05,
                                                     engine="reference")
                for cfg, env in zip(configs, envs)]
        campaign = Campaign([Scenario(f"lane[{i}]", env, 0.05)
                             for i, env in enumerate(envs)])
        for _ in kernel_backend:
            lanes = [GyroPlatform(copy.deepcopy(cfg)) for cfg in configs]
            result = campaign.run(platforms=lanes)
            for r_ref, lane in zip(refs, result.lanes):
                r_lane = lane.outcomes[0].result
                np.testing.assert_array_equal(r_lane.rate_output_dps,
                                              r_ref.rate_output_dps)
                np.testing.assert_array_equal(r_lane.pll_locked,
                                              r_ref.pll_locked)

    def test_length_mismatch_rejected(self):
        campaign = Campaign([Scenario(f"lane[{i}]", Environment.still(),
                                      0.02) for i in range(2)])
        for n in (1, 3):
            with pytest.raises(ConfigurationError, match="platforms for"):
                campaign.run(platforms=[GyroPlatform() for _ in range(n)])

    @pytest.mark.parametrize("bad", [0.0, -0.01, math.nan, math.inf])
    def test_bad_durations_rejected(self, bad):
        # a campaign lane's duration and stop-check interval are checked
        # when its scenario is built, before any lane runs
        with pytest.raises(ConfigurationError):
            Scenario("lane", Environment.still(), bad)
        with pytest.raises(ConfigurationError):
            Scenario("lane", Environment.still(), 0.01,
                     stop=startup_complete, stop_check_s=bad)


def _characterisation_round() -> list:
    """The 13 lanes of one characterisation campaign: start-up legs cut
    by stop checks, settled rate points, a noise record, bandwidth
    probes and a fault, of very different lengths."""
    programs = []
    for temp in (0.0, 50.0):
        programs.append(Scenario(f"power-on@{temp:g}C",
                                 Environment.still(temp), 0.06, reset=True,
                                 stop=startup_complete, stop_check_s=0.02))
        programs.append([Scenario(f"running-check@{temp:g}C",
                                  Environment.still(temp), 0.05,
                                  stop=startup_complete, stop_check_s=0.01),
                         settled_output_scenario(40.0, temp, 0.05)])
    programs += [settled_output_scenario(rate, 25.0, 0.05)
                 for rate in (-200.0, -50.0, 50.0, 200.0)]
    programs.append(noise_floor_scenario(25.0, 0.1, band_hz=(20.0, 200.0)))
    programs += [bandwidth_probe_scenario(f, 10.0, cycles=f * 0.1,
                                          min_duration_s=0.1)
                 for f in (12.0, 25.0, 37.5)]
    programs.append(fault_scenario(StuckAdcCode(t_start=0.01, t_stop=0.02,
                                                code=5), 30.0, 0.04))
    return programs


class TestCampaignRounds:
    def test_ragged_round_is_one_fleet_call(self, monkeypatch):
        fleets, runs = [], []
        run_fleet = EngineSpec.run_fleet

        def record(spec, platforms, *args, **kwargs):
            fleets.append(len(platforms))
            return run_fleet(spec, platforms, *args, **kwargs)

        monkeypatch.setattr(EngineSpec, "run_fleet", record)
        monkeypatch.setattr(EngineSpec, "run",
                            lambda spec, *args: runs.append(args))
        base = GyroPlatform()
        base.start()
        fleets.clear()
        Campaign(_characterisation_round()).run(base)
        # every round is one fleet call over the lanes still running,
        # with no per-lane EngineSpec.run nested inside it
        assert fleets[0] == 13
        assert fleets == sorted(fleets, reverse=True)
        assert runs == []


_structures = st.tuples(st.booleans(), st.booleans(),
                        st.sampled_from(("c", "python") if compiled.COMPILER
                                        else ("python",)))
_durations = st.lists(st.integers(min_value=1, max_value=20),
                      min_size=2, max_size=5)


class TestCampaignLaneProperty:
    """Campaign lanes against per-lane reference replays, over structure,
    lane backend and durations."""

    @QUICK_SETTINGS
    @given(structure=_structures, durations_ms=_durations,
           rates=st.lists(st.floats(min_value=-200.0, max_value=200.0),
                          min_size=5, max_size=5))
    def test_campaign_lanes_match_reference_per_lane(self, structure,
                                                     durations_ms, rates):
        closed, fixed, backend = structure
        cfg = GyroPlatformConfig()
        cfg.conditioner.closed_loop = closed
        cfg.conditioner.fixed_point = fixed
        # start-up never completes within 20 ms, so every lane is cut at
        # each 2 ms stop check and retires after a number of rounds set
        # by its own duration
        programs = [Scenario(f"lane[{b}]", Environment.constant_rate(rate),
                             ms * 1e-3, stop=startup_complete,
                             stop_check_s=min(ms, 2) * 1e-3)
                    for b, (ms, rate) in enumerate(zip(durations_ms, rates))]
        follow_on = Environment.constant_rate(20.0)

        lanes = [GyroPlatform(copy.deepcopy(cfg)) for _ in programs]
        with mock.patch.object(compiled, "BACKEND", backend):
            result = Campaign(programs).run(platforms=lanes)
        for program, lane, platform in zip(programs, result.lanes, lanes):
            ref = GyroPlatform(copy.deepcopy(cfg))
            r_ref = Campaign([program]).run(platforms=[ref],
                                            engine="reference")
            ref_state = pack_scalar_state(ref)
            r_next = ref.run(follow_on, 0.005, engine="reference")
            got, want = lane.outcomes[0], r_ref.lanes[0].outcomes[0]
            assert not got.stopped_early
            assert got.elapsed_s == want.elapsed_s
            for name in ("time_s", "rate_output_dps", "rate_output_v",
                         "amplitude_control", "phase_error",
                         "pll_locked", "running"):
                np.testing.assert_array_equal(
                    getattr(got.result, name), getattr(want.result, name),
                    err_msg=name)
            np.testing.assert_array_equal(pack_scalar_state(platform),
                                          ref_state)
            # the lane's noise generators stopped where its run ended
            with mock.patch.object(compiled, "BACKEND", backend):
                follow = platform.run(follow_on, 0.005)
            np.testing.assert_array_equal(follow.rate_output_dps,
                                          r_next.rate_output_dps)


def _lowering_probe_source() -> str:
    """A generated function with every quantiser variant (nearest, floor,
    truncate x saturate, wrap), float ``%``, ``round`` and ``**`` by
    whole-number literals, reading its input ``x`` through the views a
    kernel prelude binds: a whole-array copy, a row of a 2-D array with
    and without ``.tolist()``, and a ``len()`` (:func:`_probe_rows` puts
    ``x`` where each reads it)."""
    lines = ["def probe(xs, rows, out):",
             "    floor = _floor; trunc = _trunc; rnd = _rnd",
             "    whole = xs.tolist()", "    first = rows[0]",
             "    second = rows[1].tolist()",
             "    x = whole[0]", "    y = first[len(second) - 1]",
             "    z = second[0]"]
    counter = [0]
    slot = 0
    for rounding in ("nearest", "floor", "truncate"):
        for overflow in ("saturate", "wrap"):
            spec = fmt_spec(QFormat(3, 8, True, rounding, overflow))
            lines.append("    v = x")
            lines += quantizer_lines("v", spec, 4, counter)
            lines.append(f"    out[{slot}] = v")
            slot += 1
    for expression in ("y % 2.5", "y % -0.75", "rnd(z)", "rnd(z * 0.5)",
                       "x ** 0", "x ** 1", "x ** 2", "z ** 3", "z ** 4"):
        lines.append(f"    out[{slot}] = {expression}")
        slot += 1
    lines.append("    return 0")
    return "\n".join(lines) + "\n"


_PROBE_SLOTS = 15


def _probe_rows(x: float) -> np.ndarray:
    """The probe's 2-D input: ``x`` at ``[0][2]`` and ``[1][0]`` only."""
    return np.array([[0.25, 0.5, x], [x, 0.75, 1.25]])


@pytest.fixture(scope="session")
def lowered_probe(tmp_path_factory):
    """The probe as ``exec``'d Python and as a C library, built once."""
    source = _lowering_probe_source()
    namespace = {"_floor": math.floor, "_trunc": math.trunc, "_rnd": round}
    exec(source, namespace)
    c_source, signature = native.lower(source, scalars=(),
                                       matrices=("rows",))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        built = native.load_or_build(
            c_source, compiled.COMPILER,
            lambda lib: native.bind(lib, signature), lambda kernel: True)
    return namespace["probe"], built


_probe_values = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.5, 2.5, -2.5, 7.998046875,
                     -8.0, 2.0 ** 53, 2.0 ** 53 + 2.0, -(2.0 ** 60) - 2048.0,
                     1e20, -1e20]),
    # Python's rounding raises on these; the C kernel must report it
    st.sampled_from([math.inf, -math.inf, math.nan]),
    # powers that overflow (Python raises), underflow or stay subnormal
    st.sampled_from([1e155, -1e155, 1e78, -1e78, 1e-160, -1e-160, 1e-310,
                     -1e-310, 1.0 + 2.0 ** -52, -(1.0 + 2.0 ** -52)]),
    # exact .5 ties of round() and of the Q3.8 quantisers' LSB
    st.integers(-2 ** 40, 2 ** 40).map(lambda k: k + 0.5),
    st.integers(-2 ** 30, 2 ** 30).map(lambda k: (k + 0.5) / 256.0),
)


@pytest.fixture
def kernel_cache(tmp_path, monkeypatch):
    """An empty on-disk kernel cache and an empty in-process kernel table."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(compiled, "_KERNELS", {})
    return native.cache_dir()


@pytest.fixture
def compiler_starts(monkeypatch):
    """Every command ``subprocess.run`` starts during the test."""
    started = []
    run = subprocess.run

    def counting(args, *rest, **kwargs):
        started.append(args)
        return run(args, *rest, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting)
    return started


def _is_native(platform) -> bool:
    kernel = compiled._KERNELS.get((kernel_plan(platform), "c"))
    return hasattr(kernel, "library")


def _cached_run(duration: float = 0.05):
    platform = GyroPlatform()
    result = platform.run(Environment.constant_rate(30.0), duration)
    return platform, result


def _assert_same_run(a, b):
    (pa, ra), (pb, rb) = a, b
    for name in ("rate_output_dps", "amplitude_control", "pll_locked",
                 "phase_error", "rate_output_v"):
        np.testing.assert_array_equal(getattr(ra, name), getattr(rb, name))
    np.testing.assert_array_equal(pack_scalar_state(pa),
                                  pack_scalar_state(pb))


def test_compiler_lookup_honours_cc(monkeypatch):
    monkeypatch.setenv("CC", "/nonexistent/cc")
    assert native.find_compiler() is None


@requires_compiler
class TestCLowering:
    @DETERMINISM_SETTINGS
    @given(x=_probe_values)
    def test_lowered_probe_matches_exec(self, lowered_probe, x):
        python, lowered = lowered_probe
        expected = np.zeros(_PROBE_SLOTS)
        got = np.zeros(_PROBE_SLOTS)
        status = lowered(np.array([x]), _probe_rows(x), got)
        try:
            python(np.array([x]), _probe_rows(x), expected)
        except (ValueError, OverflowError):
            # Python rounds no infinity or NaN; C returns -1 instead
            assert status == -1, x
        else:
            assert status == 0, x
            assert got.tobytes() == expected.tobytes(), (x, got, expected)

    def test_call_refuses_wrong_dtype_or_layout(self, lowered_probe):
        _, lowered = lowered_probe
        out = np.zeros(_PROBE_SLOTS)
        for xs in (np.zeros(4)[::2], np.zeros(1, dtype=np.int64)):
            with pytest.raises(ValueError, match="C-contiguous"):
                lowered(xs, _probe_rows(0.0), out)
        with pytest.raises(ValueError, match="C-contiguous"):
            lowered(np.zeros(1), _probe_rows(0.0)[:, :2], out)

    def test_drawn_streams_match_take(self, tmp_path, monkeypatch):
        # C fills each drawn row with random_normal and Python with the
        # source's take(): the rows, what the loop makes of them and the
        # generators' end positions agree, also for a source that
        # per-sample draws left mid-block, a source whose sigma is 0
        # (it draws nothing) and a loop that reads in a branch and
        # returns early
        source = ("def f(nc, out, rows, noise):\n"
                  "    draw = _draw\n"
                  "    a_r = draw(noise[0], 0.5, rows[0]).tolist()\n"
                  "    b_r = draw(noise[2], 0.0, rows[1])\n"
                  "    c_r = draw(noise[1], 2.0, rows[2]).tolist()\n"
                  "    for j in range(nc):\n"
                  "        if j > 2:\n"
                  "            out[j] = a_r[j] - 3.0 * c_r[j] + b_r[j]\n"
                  "        if j == 30:\n"
                  "            return 1\n"
                  "    return 0\n")
        c_source, signature = native.lower(source, scalars=("nc",),
                                           ints=("j",),
                                           array_types={"noise": "stream"},
                                           matrices=("rows",))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        lowered = native.load_or_build(
            c_source, compiled.COMPILER,
            lambda lib: native.bind(lib, signature), lambda kernel: True)
        namespace = {"_draw": compiled._draw}
        exec(source, namespace)

        def sources():
            pending = BufferedGaussianNoise(0.5, seed=3, block_size=16)
            for _ in range(5):
                pending.next()
            return [pending, BufferedGaussianNoise(2.0, seed=4),
                    BufferedGaussianNoise(0.0, seed=5)]

        for n, status in ((40, 1), (20, 0)):
            expected, got = np.zeros(n), np.zeros(n)
            rows, c_rows = np.zeros((3, n)), np.zeros((3, n))
            python_sources, c_sources = sources(), sources()
            assert namespace["f"](n, expected, rows, python_sources) == status
            assert lowered(n, got, c_rows, c_sources) == status
            assert got.tobytes() == expected.tobytes()
            assert c_rows.tobytes() == rows.tobytes()
            assert [pickle.dumps(s) for s in c_sources] == \
                [pickle.dumps(s) for s in python_sources]


def test_unknown_construct_is_refused():
    for body, matrices in (
            # powers other than a float by a whole-number literal
            ("    return xs[0] ** 0.5", ()),
            ("    return xs[0] ** -1", ()),
            ("    return k ** 2", ()),
            # a row of an argument not declared 2-D
            ("    r = xs[0]\n    return r[1]", ()),
            ("    r = xs[0].tolist()\n    return r[1]", ()),
            # a row index that is not a literal
            ("    r = xs[k]\n    return r[1]", ("xs",)),
            ("    r = xs[0.0]\n    return r[1]", ("xs",))):
        with pytest.raises(native.LoweringError):
            native.lower(f"def f(k, xs):\n{body}\n", scalars=("k",),
                         matrices=matrices)


def test_unknown_draw_is_refused():
    head = "def f(nc, k, out, flags, rows, noise):\n"
    for body, reason in (
            ("    a_r = draw(noise[k], 0.5, out)\n", "literal index"),
            ("    a_r = draw(out[0], 0.5, out)\n", "literal index"),
            ("    a_r = draw(noise[0], 0.5)\n", "cannot lower"),
            ("    a_r = draw(noise[0], 0.5, out)\n"
             "    b_r = draw(noise[0], 0.5, rows[0])\n", "cannot lower"),
            ("    a_r = draw(noise[0], 0.5, rows)\n", "float array or row"),
            ("    a_r = draw(noise[0], 0.5, flags)\n", "float array or row"),
            ("    for j in range(nc):\n"
             "        a_r = draw(noise[0], 0.5, out)\n", "cannot bind")):
        with pytest.raises(native.LoweringError, match=reason):
            native.lower(head + body + "    return 0\n",
                         scalars=("nc", "k"), ints=("j",),
                         array_types={"noise": "stream", "flags": "bool"},
                         matrices=("rows",))


def test_cache_key_covers_numpy_random(monkeypatch):
    compiler = (sys.executable,)
    monkeypatch.setattr(native, "_file_digest", lambda path: "a" * 64)
    key = native.cache_key("int x;", compiler)
    assert native.cache_key("int x;", compiler) == key
    monkeypatch.setattr(native, "_file_digest", lambda path: "b" * 64)
    assert native.cache_key("int x;", compiler) != key
    monkeypatch.setattr(native, "_file_digest", lambda path: "a" * 64)
    monkeypatch.setattr(np, "__version__", "0.0.1")
    assert native.cache_key("int x;", compiler) != key


def test_self_check_compares_noise_generators():
    platform = GyroPlatform()
    plan = kernel_plan(platform)
    python = compiled._python_kernel(plan)

    def one_draw_more(*args):
        rec = python(*args)
        args[-1][0].take(1)  # the sensor noise
        return rec

    environment = Environment.still()
    assert compiled._self_check(plan, python, platform, environment)
    assert not compiled._self_check(plan, one_draw_more, platform,
                                    environment)


@requires_compiler
class TestKernelCache:
    def test_warm_load_starts_no_process(self, kernel_cache, monkeypatch):
        built = _cached_run()
        assert _is_native(built[0])
        library, = kernel_cache.glob("*.so")
        assert sorted(p.name for p in kernel_cache.iterdir()) == [
            library.stem + ".sha256", library.name]

        def no_process(*args, **kwargs):
            raise AssertionError("a warm kernel load started a process")

        compiled._KERNELS.clear()
        monkeypatch.setattr(subprocess, "Popen", no_process)
        warm = _cached_run()
        assert _is_native(warm[0])
        _assert_same_run(built, warm)

    def test_flipped_byte_is_rebuilt(self, kernel_cache):
        built = _cached_run()
        library, = kernel_cache.glob("*.so")
        corrupt = bytearray(library.read_bytes())
        corrupt[len(corrupt) // 2] ^= 0xFF
        flipped = library.with_suffix(".flipped")
        flipped.write_bytes(bytes(corrupt))
        os.replace(flipped, library)

        compiled._KERNELS.clear()
        rebuilt = _cached_run()
        assert _is_native(rebuilt[0])
        data = library.read_bytes()
        assert data != bytes(corrupt)
        assert hashlib.sha256(data).hexdigest() == \
            library.with_suffix(".sha256").read_text().strip()
        _assert_same_run(built, rebuilt)

    def test_concurrent_builders_both_succeed(self, kernel_cache):
        script = (
            "import hashlib\n"
            "from repro.engine import compiled\n"
            "from repro.platform import GyroPlatform\n"
            "from repro.sensors import Environment\n"
            "p = GyroPlatform()\n"
            "r = p.run(Environment.constant_rate(30.0), 0.02)\n"
            "k = compiled._KERNELS[(compiled.kernel_plan(p), 'c')]\n"
            "assert hasattr(k, 'library')\n"
            "print(hashlib.sha256(r.rate_output_dps.tobytes()).hexdigest())\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        builders = [subprocess.Popen([sys.executable, "-c", script], env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
                    for _ in range(2)]
        outputs = [builder.communicate(timeout=300) for builder in builders]
        assert [b.returncode for b in builders] == [0, 0], outputs
        assert outputs[0][0] == outputs[1][0]
        names = sorted(p.suffix for p in kernel_cache.iterdir())
        assert names == [".sha256", ".so"]

    def test_host_without_glibc_builds_and_loads(self, kernel_cache,
                                                 monkeypatch,
                                                 compiler_starts):
        def unknown_name(name):
            raise ValueError("unrecognized configuration name")

        # macOS and musl: the name is unknown to the C library
        monkeypatch.setattr(os, "confstr", unknown_name)
        env = Environment.constant_rate(30.0)
        platform = GyroPlatform()
        result = platform.run(env, 0.05)
        assert _is_native(platform) and len(compiler_starts) == 1
        ref = GyroPlatform()
        _assert_same_run((ref, ref.run(env, 0.05, engine="reference")),
                         (platform, result))
        # Windows: no os.confstr at all, the same key and a warm load
        monkeypatch.delattr(os, "confstr")
        compiled._KERNELS.clear()
        warm = _cached_run()
        assert _is_native(warm[0]) and len(compiler_starts) == 1

    def test_unpicklable_platform_builds_once(self, kernel_cache,
                                              compiler_starts):
        env = Environment.constant_rate(30.0)
        platform = GyroPlatform()
        platform.conditioner.registers.on_write("dsp_drive_gain",
                                                lambda value: None)
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(platform)
        results = [platform.run(env, 0.02) for _ in range(2)]
        assert len(compiler_starts) == 1
        assert _is_native(platform)
        ref = GyroPlatform()
        expected = [ref.run(env, 0.02, engine="reference") for _ in range(2)]
        _assert_same_run((ref, expected[1]), (platform, results[1]))

    def test_rejected_stimulus_still_caches_the_build(self, kernel_cache,
                                                      compiler_starts):
        platform = GyroPlatform()
        with pytest.raises(ConfigurationError, match="not finite"):
            platform.run(Environment.constant_rate(math.nan), 0.02)
        assert len(compiler_starts) == 1
        assert _is_native(platform)
        assert len(list(kernel_cache.glob("*.so"))) == 1
        good = _cached_run()
        assert _is_native(good[0]) and len(compiler_starts) == 1

    def test_unwritable_cache_builds_per_process(self, kernel_cache,
                                                 monkeypatch, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        monkeypatch.setattr(native, "_fallback_dir", None)
        closed = GyroPlatformConfig()
        closed.conditioner.closed_loop = True
        with pytest.warns(RuntimeWarning, match="not writable") as caught:
            platform, _ = _cached_run(0.01)
            other = GyroPlatform(closed)
            other.run(Environment.still(), 0.01)
        assert len(caught) == 1
        assert _is_native(platform) and _is_native(other)
        assert len(list(Path(native._fallback_dir).glob("*.so"))) == 2

    def test_missing_numpy_random_keeps_python(self, kernel_cache,
                                               monkeypatch, tmp_path):
        monkeypatch.setattr(native, "NPYRANDOM", tmp_path / "libnpyrandom.a")
        env = Environment.constant_rate(30.0)
        platform = GyroPlatform()
        with pytest.warns(RuntimeWarning, match="libnpyrandom") as caught:
            results = [platform.run(env, 0.02) for _ in range(2)]
        assert len(caught) == 1
        plan = kernel_plan(platform)
        assert compiled._KERNELS[(plan, "c")] \
            is compiled._KERNELS[(plan, "python")]
        assert not list(kernel_cache.glob("*.so"))
        ref = GyroPlatform()
        expected = [ref.run(env, 0.02, engine="reference") for _ in range(2)]
        _assert_same_run((ref, expected[1]), (platform, results[1]))

    def test_failed_self_check_keeps_python(self, kernel_cache, monkeypatch):
        lower = native.lower

        def perturbed(*args):
            c_source, signature = lower(*args)
            # the sensor's / 180.0, as the lowering spells it
            assert "(0x1.6800000000000p+7)" in c_source
            return c_source.replace("(0x1.6800000000000p+7)",
                                    "(0x1.6800000000001p+7)"), signature

        monkeypatch.setattr(native, "lower", perturbed)
        env = Environment.constant_rate(30.0)
        platform = GyroPlatform()
        with pytest.warns(RuntimeWarning, match="differs from the Python"):
            result = platform.run(env, 0.05)
        plan = kernel_plan(platform)
        assert compiled._KERNELS[(plan, "c")] \
            is compiled._KERNELS[(plan, "python")]
        assert not list(kernel_cache.glob("*.so"))
        ref = GyroPlatform()
        _assert_same_run((ref, ref.run(env, 0.05, engine="reference")),
                         (platform, result))
