"""Tests for the compiled (generated-kernel) engine (``repro.engine.compiled``).

The cross-engine bit-identity suites in ``test_engine.py`` and
``test_faults.py`` already run the ``"compiled"`` engine against the
reference loop; this module locks the pieces that make that possible:

* the inline quantiser snippets emitted into generated kernels are
  bit-exact against :func:`repro.common.fixedpoint.quantize` in both
  layouts (Hypothesis property over formats, rounding and overflow
  modes);
* packed scalar-state vectors round-trip through pack/unpack;
* the fleet entry point handles heterogeneous lanes, broadcasts scalar
  environments, validates length mismatches and stays chunk-invariant on
  fleets large enough to take the small-chunk path, in both layouts;
* the fleet layout follows the fleet's shape: full groups of equal
  structure run in lockstep, ragged campaign rounds lane by lane, and
  lockstep, lane-by-lane and reference runs agree lane for lane
  (Hypothesis property over structures and durations);
* plans with ``overflow="error"`` sites delegate to the reference loop,
  which raises on a real overflow on every engine;
* backend provenance reports whichever of numba / generated-Python is
  actually active (numba-specific assertions carry a skip marker so the
  suite is green either way).
"""

import copy
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies.settings import QUICK_SETTINGS

from repro.common import ConfigurationError, FixedPointOverflowError
from repro.common.fixedpoint import QFormat, quantize
from repro.engine import FleetSimulator, backend_info, compiled_backend, \
    run_compiled, run_compiled_fleet
from repro.engine import compiled
from repro.engine.compiled import (
    HAVE_NUMBA,
    LANE_CHUNK,
    _compile_kernel,
    kernel_plan,
    quantizer_lines,
)
from repro.engine.state import fmt_spec, pack_scalar_state, \
    unpack_scalar_state
from repro.faults.models import StuckAdcCode
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
from repro.sensors import Environment

requires_numba = pytest.mark.skipif(not HAVE_NUMBA,
                                    reason="numba not installed")


def _exec_quantizer(fmt: QFormat, lockstep: bool = False):
    """Build a callable from the exact snippet the codegen would inline."""
    spec = fmt_spec(fmt)
    lines = ["def q(x):"] + quantizer_lines("x", spec, 4, [0], lockstep) \
        + ["    return x"]
    if lockstep:
        namespace = {"floor": np.floor, "trunc": np.trunc,
                     "minimum": np.minimum, "maximum": np.maximum}
    else:
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
        lanes = _exec_quantizer(fmt, lockstep=True)(np.full(3, value))
        np.testing.assert_array_equal(lanes, np.full(3, expected))

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
        plan = kernel_plan(GyroPlatform(GyroPlatformConfig()))
        assert _compile_kernel(plan) is _compile_kernel(plan)

    def test_backend_provenance(self):
        assert compiled_backend() == ("numba" if HAVE_NUMBA else "python")
        info = backend_info()
        assert info["backend"] == compiled_backend()
        assert isinstance(info["numba_available"], bool)

    @requires_numba
    def test_numba_backend_active_when_installed(self):
        assert compiled_backend() == "numba"
        assert backend_info()["numba_version"]

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
            FleetSimulator([platform()]).run(Environment.still(), 0.05)


class TestPackedState:
    def test_pack_unpack_round_trip(self):
        source = GyroPlatform(GyroPlatformConfig())
        source.run(Environment.constant_rate(60.0), 0.04, engine="reference")
        packed = pack_scalar_state(source)

        target = GyroPlatform(GyroPlatformConfig())
        unpack_scalar_state(target, packed)
        np.testing.assert_array_equal(pack_scalar_state(target), packed)

    def test_chunk_size_invariance(self):
        env = Environment.constant_rate(75.0)
        a = GyroPlatform(GyroPlatformConfig())
        b = GyroPlatform(GyroPlatformConfig())
        r_a = run_compiled(a, env, 0.06)
        r_b = run_compiled(b, env, 0.06, chunk_samples=997)
        np.testing.assert_array_equal(r_a.rate_output_dps,
                                      r_b.rate_output_dps)
        np.testing.assert_array_equal(pack_scalar_state(a),
                                      pack_scalar_state(b))


class TestCompiledFleet:
    def test_heterogeneous_lanes_match_reference(self, fleet_layout):
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
        for _ in fleet_layout:
            lanes = [GyroPlatform(copy.deepcopy(cfg)) for cfg in configs]
            results = run_compiled_fleet(lanes, envs, [0.05] * 3)
            for r_ref, result in zip(refs, results):
                np.testing.assert_array_equal(result.rate_output_dps,
                                              r_ref.rate_output_dps)
                np.testing.assert_array_equal(result.pll_locked,
                                              r_ref.pll_locked)

    def test_scalar_environment_and_duration_broadcast(self, fleet_layout):
        for _ in fleet_layout:
            lanes = [GyroPlatform(GyroPlatformConfig()) for _ in range(3)]
            results = run_compiled_fleet(lanes, Environment.still(), 0.02)
            assert len(results) == 3
            np.testing.assert_array_equal(results[0].rate_output_dps,
                                          results[1].rate_output_dps)
            np.testing.assert_array_equal(results[0].rate_output_dps,
                                          results[2].rate_output_dps)

    def test_length_mismatch_rejected(self):
        lanes = [GyroPlatform(GyroPlatformConfig()) for _ in range(2)]
        with pytest.raises(ConfigurationError):
            run_compiled_fleet(lanes, [Environment.still()] * 3, 0.02)
        with pytest.raises(ConfigurationError):
            run_compiled_fleet(lanes, Environment.still(), [0.02] * 3)

    @pytest.mark.parametrize("bad", [0.0, -0.01, math.nan, math.inf])
    def test_bad_durations_rejected(self, bad):
        lanes = [GyroPlatform(GyroPlatformConfig()) for _ in range(2)]
        with pytest.raises(ConfigurationError):
            run_compiled_fleet(lanes, Environment.still(), bad)
        with pytest.raises(ConfigurationError):
            run_compiled_fleet(lanes, Environment.still(), [0.01, bad])

    def test_big_fleet_chunk_path_is_bit_identical(self, fleet_layout):
        # LANE_CHUNK+1 lanes flips the fleet runner onto the small
        # per-chunk sample count; lane 0 must still match a solo run.
        n_lanes = LANE_CHUNK + 1
        cfg = GyroPlatformConfig()
        solo = GyroPlatform(copy.deepcopy(cfg))
        r_solo = run_compiled(solo, Environment.still(), 0.01)
        for _ in fleet_layout:
            lanes = [GyroPlatform(copy.deepcopy(cfg))
                     for _ in range(n_lanes)]
            results = run_compiled_fleet(lanes, Environment.still(), 0.01)
            assert len(results) == n_lanes
            np.testing.assert_array_equal(results[0].rate_output_dps,
                                          r_solo.rate_output_dps)
            np.testing.assert_array_equal(pack_scalar_state(lanes[0]),
                                          pack_scalar_state(solo))


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


class TestFleetLayoutSelection:
    def _spy(self, monkeypatch) -> list:
        calls = []
        original = compiled._run_lockstep

        def spy(platforms, *args):
            calls.append(len(platforms))
            return original(platforms, *args)

        monkeypatch.setattr(compiled, "_run_lockstep", spy)
        return calls

    def test_full_fleet_lockstep_ragged_round_lane_by_lane(self,
                                                           monkeypatch):
        calls = self._spy(monkeypatch)
        lanes = [GyroPlatform() for _ in range(32)]
        run_compiled_fleet(lanes, Environment.still(), 0.002)
        # a numba lane kernel is native code: nothing runs in lockstep
        assert calls == ([] if HAVE_NUMBA else [32])
        assert compiled.LOCKSTEP_CROSSOVER == (math.inf if HAVE_NUMBA
                                               else 24.0)

        calls.clear()
        fleets = []
        original = compiled.run_compiled_fleet

        def record(platforms, *args, **kwargs):
            fleets.append(len(platforms))
            return original(platforms, *args, **kwargs)

        monkeypatch.setattr(compiled, "run_compiled_fleet", record)
        base = GyroPlatform()
        base.start()
        Campaign(_characterisation_round()).run(base)
        assert fleets[0] == 13
        assert calls == []


_structures = st.tuples(st.booleans(), st.booleans())
_durations = st.lists(st.integers(min_value=1, max_value=20),
                      min_size=2, max_size=5)


class TestLayoutProperty:
    @QUICK_SETTINGS
    @given(structure=_structures, durations_ms=_durations,
           rates=st.lists(st.floats(min_value=-200.0, max_value=200.0),
                          min_size=5, max_size=5))
    def test_layouts_and_reference_agree_per_lane(self, structure,
                                                  durations_ms, rates):
        closed, fixed = structure
        cfg = GyroPlatformConfig()
        cfg.conditioner.closed_loop = closed
        cfg.conditioner.fixed_point = fixed
        durations = [ms * 1e-3 for ms in durations_ms]
        envs = [Environment.constant_rate(rate) for rate in rates]
        envs = envs[:len(durations)]
        follow_on = Environment.constant_rate(20.0)

        runs = {}
        for layout, crossover in (("lockstep", 1), ("lane", math.inf)):
            lanes = [GyroPlatform(copy.deepcopy(cfg)) for _ in durations]
            with mock.patch.object(compiled, "LOCKSTEP_CROSSOVER",
                                   crossover):
                runs[layout] = (lanes, run_compiled_fleet(lanes, envs,
                                                          durations))
        for b, (env, duration) in enumerate(zip(envs, durations)):
            ref = GyroPlatform(copy.deepcopy(cfg))
            r_ref = ref.run(env, duration, engine="reference")
            ref_state = pack_scalar_state(ref)
            r_next = ref.run(follow_on, 0.005, engine="reference")
            for lanes, results in runs.values():
                for name in ("time_s", "rate_output_dps", "rate_output_v",
                             "amplitude_control", "phase_error",
                             "pll_locked", "running"):
                    np.testing.assert_array_equal(
                        getattr(results[b], name), getattr(r_ref, name),
                        err_msg=name)
                np.testing.assert_array_equal(pack_scalar_state(lanes[b]),
                                              ref_state)
                # the lane's noise generators stopped where it retired
                np.testing.assert_array_equal(
                    lanes[b].run(follow_on, 0.005).rate_output_dps,
                    r_next.rate_output_dps)
