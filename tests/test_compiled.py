"""Tests for the compiled (generated-kernel) engine (``repro.engine.compiled``).

The cross-engine bit-identity suites in ``test_engine.py`` and
``test_faults.py`` already run the ``"compiled"`` engine against the
reference loop; this module locks the pieces that make that possible:

* the inline quantiser snippets emitted into generated kernels are
  bit-exact against :func:`repro.common.fixedpoint.quantize` (Hypothesis
  property over formats, rounding and overflow modes);
* packed scalar-state vectors round-trip through pack/unpack;
* the fleet entry point handles heterogeneous lanes, broadcasts scalar
  environments, validates length mismatches and stays chunk-invariant on
  fleets large enough to take the small-chunk path;
* plans with ``overflow="error"`` sites delegate to the reference loop,
  which raises on a real overflow on every engine;
* backend provenance reports whichever of numba / generated-Python is
  actually active (numba-specific assertions carry a skip marker so the
  suite is green either way).
"""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ConfigurationError, FixedPointOverflowError
from repro.common.fixedpoint import QFormat, quantize
from repro.engine import FleetSimulator, backend_info, compiled_backend, \
    run_compiled, run_compiled_fleet
from repro.engine.compiled import (
    HAVE_NUMBA,
    LANE_CHUNK,
    _compile_kernel,
    kernel_plan,
    quantizer_lines,
)
from repro.engine.state import fmt_spec, pack_scalar_state, \
    unpack_scalar_state
from repro.platform import GyroPlatform, GyroPlatformConfig
from repro.sensors import Environment

requires_numba = pytest.mark.skipif(not HAVE_NUMBA,
                                    reason="numba not installed")


def _exec_quantizer(fmt: QFormat):
    """Build a callable from the exact snippet the codegen would inline."""
    spec = fmt_spec(fmt)
    lines = ["def q(x):"] + quantizer_lines("x", spec, 4, [0]) + \
        ["    return x"]
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
    def test_heterogeneous_lanes_match_reference(self):
        open_cfg = GyroPlatformConfig()
        closed_cfg = GyroPlatformConfig()
        closed_cfg.conditioner.closed_loop = True
        fixed_cfg = GyroPlatformConfig()
        fixed_cfg.conditioner.fixed_point = True
        configs = [open_cfg, closed_cfg, fixed_cfg]
        envs = [Environment.still(),
                Environment.constant_rate(120.0),
                Environment.constant_rate(-40.0)]

        lanes = [GyroPlatform(copy.deepcopy(cfg)) for cfg in configs]
        results = run_compiled_fleet(lanes, envs, [0.05] * 3)
        for cfg, env, result in zip(configs, envs, results):
            ref = GyroPlatform(copy.deepcopy(cfg))
            r_ref = ref.run(env, 0.05, engine="reference")
            np.testing.assert_array_equal(result.rate_output_dps,
                                          r_ref.rate_output_dps)
            np.testing.assert_array_equal(result.pll_locked,
                                          r_ref.pll_locked)

    def test_scalar_environment_and_duration_broadcast(self):
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

    def test_big_fleet_chunk_path_is_bit_identical(self):
        # LANE_CHUNK+1 lanes flips the fleet runner onto the small
        # per-chunk sample count; lane 0 must still match a solo run.
        n_lanes = LANE_CHUNK + 1
        cfg = GyroPlatformConfig()
        lanes = [GyroPlatform(copy.deepcopy(cfg)) for _ in range(n_lanes)]
        results = run_compiled_fleet(lanes, Environment.still(), 0.01)
        assert len(results) == n_lanes

        solo = GyroPlatform(copy.deepcopy(cfg))
        r_solo = run_compiled(solo, Environment.still(), 0.01)
        np.testing.assert_array_equal(results[0].rate_output_dps,
                                      r_solo.rate_output_dps)
        np.testing.assert_array_equal(pack_scalar_state(lanes[0]),
                                      pack_scalar_state(solo))
