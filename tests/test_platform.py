"""Tests for the platform package: IP portfolio, generic platform, gyro co-sim.

The full co-simulation is expensive, so the heavyweight objects (a
started platform and a calibrated platform) are built once per test
session and shared.
"""

import gc
import math
import types

import numpy as np
import pytest

from repro.common import ConfigurationError, SimulationError
from repro.engine import state
from repro.platform import (
    BASE_BLOCKS,
    Domain,
    GenericSensorPlatform,
    GyroPlatform,
    GyroPlatformConfig,
    GyroSimulationResult,
    IpBlock,
    IpPortfolio,
    PlatformInstance,
    TemperatureSensorConfig,
    default_portfolio,
)
from repro.sensors import Environment


class TestIpPortfolio:
    def test_default_portfolio_nonempty(self):
        portfolio = default_portfolio()
        assert len(portfolio) > 20

    def test_block_validation(self):
        with pytest.raises(ConfigurationError):
            IpBlock("bad", Domain.ANALOG, area_mm2=-1.0)

    def test_duplicate_rejected(self):
        portfolio = IpPortfolio()
        portfolio.add(IpBlock("x", Domain.ANALOG))
        with pytest.raises(ConfigurationError):
            portfolio.add(IpBlock("x", Domain.ANALOG))

    def test_lookup(self):
        portfolio = default_portfolio()
        assert "cpu_8051" in portfolio
        assert portfolio.get("cpu_8051").gates > 0
        with pytest.raises(ConfigurationError):
            portfolio.get("nonexistent")

    def test_by_domain(self):
        portfolio = default_portfolio()
        analog = portfolio.by_domain(Domain.ANALOG)
        assert analog and all(b.domain is Domain.ANALOG for b in analog)

    def test_for_sensor_class(self):
        portfolio = default_portfolio()
        gyro_blocks = portfolio.for_sensor_class("gyro")
        names = {b.name for b in gyro_blocks}
        assert "charge_amplifier" in names
        assert "bridge_excitation" not in names

    def test_totals(self):
        portfolio = default_portfolio()
        names = ["sar_adc_12b", "dac_12b"]
        assert portfolio.total_area_mm2(names) == pytest.approx(1.9)
        assert portfolio.total_gates(["cpu_8051"]) == 35000
        assert portfolio.total_power_mw(names) > 0


class TestGenericPlatform:
    def test_supported_classes(self):
        platform = GenericSensorPlatform()
        assert set(platform.supported_sensor_classes) == {
            "gyro", "capacitive", "resistive", "inductive"}

    def test_derive_gyro_includes_specific_blocks(self):
        platform = GenericSensorPlatform()
        instance = platform.derive("gyro")
        names = instance.block_names()
        assert "pll_loop_filter" in names
        assert "agc" in names
        assert "bridge_excitation" not in names
        for base in ("cpu_8051", "uart", "jtag_tap"):
            assert base in names

    def test_derive_unknown_class_rejected(self):
        with pytest.raises(ConfigurationError):
            GenericSensorPlatform().derive("optical")

    def test_derived_instance_costs_roll_up(self):
        platform = GenericSensorPlatform()
        instance = platform.derive("gyro")
        assert instance.analog_area_mm2 > 4.0
        assert 150_000 < instance.digital_gates < 250_000
        assert instance.code_bytes > 4000

    def test_pressure_instance_smaller_than_gyro(self):
        platform = GenericSensorPlatform()
        gyro = platform.derive("gyro")
        pressure = platform.derive("capacitive")
        assert pressure.digital_gates < gyro.digital_gates

    def test_unused_blocks_not_integrated(self):
        platform = GenericSensorPlatform()
        instance = platform.derive("capacitive")
        unused_names = {b.name for b in platform.unused_blocks(instance)}
        assert "pll_loop_filter" in unused_names
        assert not unused_names & set(instance.block_names())

    def test_extra_blocks(self):
        platform = GenericSensorPlatform()
        instance = platform.derive("capacitive", extra_blocks=("sram_controller",))
        assert "sram_controller" in instance.block_names()

    def test_architecture_report(self):
        platform = GenericSensorPlatform()
        report = platform.architecture_report(platform.derive("gyro"))
        assert "Analog front-end" in report
        assert "cpu_8051" in report
        assert "gates" in report

    def test_domain_partition_of_instance(self):
        instance = GenericSensorPlatform().derive("gyro")
        analog = instance.blocks_in_domain(Domain.ANALOG)
        software = instance.blocks_in_domain(Domain.SOFTWARE)
        assert analog and software


class TestSimulationResult:
    def _make(self, n=10):
        z = np.zeros(n)
        return GyroSimulationResult(
            time_s=np.linspace(0, 1, n), sample_rate_hz=float(n),
            true_rate_dps=z, temperature_c=z + 25.0,
            rate_output_dps=np.linspace(0, 10, n), rate_output_v=z + 2.5,
            amplitude_control=z, amplitude_error=z, phase_error=z,
            vco_control=z, pll_locked=np.array([False] * 3 + [True] * (n - 3)),
            running=np.array([False] * 5 + [True] * (n - 5)))

    def test_shape_validation(self):
        z = np.zeros(5)
        with pytest.raises(ConfigurationError):
            GyroSimulationResult(
                time_s=np.zeros(4), sample_rate_hz=1.0, true_rate_dps=z,
                temperature_c=z, rate_output_dps=z, rate_output_v=z,
                amplitude_control=z, amplitude_error=z, phase_error=z,
                vco_control=z, pll_locked=z.astype(bool), running=z.astype(bool))

    def test_duration_and_means(self):
        result = self._make()
        assert result.duration_s == pytest.approx(1.0)
        assert result.mean_output_v() == pytest.approx(2.5)
        assert result.mean_output_dps(fraction=1.0) == pytest.approx(5.0)

    def test_lock_time(self):
        result = self._make()
        assert result.lock_time_s() == pytest.approx(result.time_s[3])

    def test_settled_slice_validation(self):
        result = self._make()
        with pytest.raises(ConfigurationError):
            result.settled_slice(0.0)

    def test_summary_keys(self):
        summary = self._make().summary()
        assert {"duration_s", "final_rate_dps", "locked"} <= set(summary)


# ---------------------------------------------------------------------------
# Full co-simulation (session-scoped fixtures keep the cost manageable)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def started_platform():
    platform = GyroPlatform()
    result = platform.start()
    return platform, result


@pytest.fixture(scope="session")
def calibrated_platform():
    platform = GyroPlatform()
    platform.calibrate(settle_s=0.2)
    return platform


def _object_graph(root):
    """Every object reachable from ``root`` through instances and
    containers (not through classes, modules, functions or generators)."""
    seen = {id(root): root}
    stack = [root]
    leaves = (type, types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, types.MethodType,
              np.random.Generator)
    while stack:
        obj = stack.pop()
        if isinstance(obj, leaves):
            continue
        for referent in gc.get_referents(obj):
            if id(referent) not in seen:
                seen[id(referent)] = referent
                stack.append(referent)
    return list(seen.values())


def test_started_platform_holds_python_scalars_and_no_spare_generators():
    # NumPy scalars pickle as REDUCE calls and every Generator is rebuilt
    # on each lane branch, so a platform holds floats and one generator
    # per noise source the loop draws
    platform = GyroPlatform()
    platform.start()
    graph = _object_graph(platform)
    assert [o for o in graph if isinstance(o, np.generic)] == []
    generators = [o for o in graph if isinstance(o, np.random.Generator)]
    assert len(generators) == len(state.NOISE_SOURCES) == 7
    assert {id(g) for g in generators} == \
        {id(source._rng) for source in state.noise_sources(platform)}


class TestGyroPlatform:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GyroPlatformConfig(sample_rate_hz=0.0)
        with pytest.raises(ConfigurationError):
            GyroPlatformConfig(record_decimation=0)
        with pytest.raises(ConfigurationError):
            TemperatureSensorConfig(resolution_c=0.0)

    def test_part_variation_recipe(self):
        # deep copy, sensor draw, then a fresh front-end seed, all from
        # one generator; the nominal design is left as it was
        nominal = GyroPlatformConfig()
        part = nominal.with_part_variation(np.random.default_rng(3),
                                           frequency_spread=0.0)
        replay = np.random.default_rng(3)
        assert part.sensor == nominal.sensor.with_part_variation(
            replay, frequency_spread=0.0)
        assert part.frontend.seed == int(replay.integers(0, 2 ** 31 - 1))
        assert nominal == GyroPlatformConfig()
        nominal.frontend.seed = None
        assert nominal.with_part_variation(replay).frontend.seed is None

    def test_run_rejects_bad_duration(self):
        platform = GyroPlatform()
        for bad in (0.0, -0.01, math.nan, math.inf, "0.1", None):
            with pytest.raises(ConfigurationError, match="duration"):
                platform.run(Environment.still(), bad)
        assert platform.now == 0.0

    def test_run_rejects_environment_sequence(self):
        # several lanes are a campaign; run takes exactly one environment
        platform = GyroPlatform()
        for environments in ([], [Environment.still()] * 2,
                             (Environment.still(),)):
            with pytest.raises(ConfigurationError, match="Campaign"):
                platform.run(environments, 0.01)
        assert platform.now == 0.0

    def test_startup_locks_and_completes(self, started_platform):
        platform, result = started_platform
        assert platform.conditioner.running
        assert result.pll_locked[-1]
        assert result.turn_on_time_s is not None
        # Table 1 shape: turn-on takes hundreds of milliseconds
        assert 0.2 < result.turn_on_time_s < 1.0

    def test_startup_amplitude_on_target(self, started_platform):
        platform, _ = started_platform
        target = platform.conditioner.config.drive.agc.target_amplitude
        assert platform.conditioner.drive_loop.pll.amplitude_estimate == pytest.approx(
            target, rel=0.1)

    def test_pll_frequency_near_resonance(self, started_platform):
        platform, _ = started_platform
        assert platform.conditioner.drive_loop.pll.frequency_hz == pytest.approx(
            platform.config.sensor.primary_resonance_hz, abs=20.0)

    def test_traces_recorded(self, started_platform):
        _, result = started_platform
        assert result.time_s.size > 100
        assert result.amplitude_control.size == result.time_s.size
        assert np.all(np.diff(result.time_s) > 0)

    def test_calibrated_zero_rate_output(self, calibrated_platform):
        _, dps, volts = calibrated_platform.measure_settled_output(0.0, 25.0,
                                                                   duration_s=0.15)
        assert abs(dps) < 5.0
        assert volts == pytest.approx(2.5, abs=0.05)

    def test_calibrated_positive_rate(self, calibrated_platform):
        _, dps, volts = calibrated_platform.measure_settled_output(100.0, 25.0,
                                                                   duration_s=0.2)
        assert dps == pytest.approx(100.0, rel=0.05)
        assert volts > 2.9

    def test_calibrated_negative_rate(self, calibrated_platform):
        _, dps, volts = calibrated_platform.measure_settled_output(-100.0, 25.0,
                                                                   duration_s=0.2)
        assert dps == pytest.approx(-100.0, rel=0.05)
        assert volts < 2.1

    def test_analog_sensitivity_close_to_5mv(self, calibrated_platform):
        _, _, v_pos = calibrated_platform.measure_settled_output(200.0, 25.0,
                                                                 duration_s=0.2)
        _, _, v_neg = calibrated_platform.measure_settled_output(-200.0, 25.0,
                                                                 duration_s=0.2)
        sensitivity = (v_pos - v_neg) / 400.0
        assert sensitivity == pytest.approx(0.005, rel=0.1)

    def test_temperature_calibration_requires_scale_first(self):
        platform = GyroPlatform()
        with pytest.raises(SimulationError):
            platform.calibrate_temperature()

    def test_waveform_recording(self):
        platform = GyroPlatform()
        result = platform.run(Environment.still(), 0.01, reset=True,
                              record_waveforms=True)
        assert result.primary_pickoff_norm is not None
        assert result.drive_word is not None
        assert result.primary_pickoff_norm.size == result.time_s.size

    def test_dsp_status_register_visible_after_start(self, started_platform):
        platform, _ = started_platform
        status = platform.conditioner.registers.register("dsp_status")
        assert status.read_field("pll_locked") == 1
        assert status.read_field("running") == 1
