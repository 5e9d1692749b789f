"""Tests for the platform-based design flow package."""

import numpy as np
import pytest

from repro.common import ConfigurationError, Gain, PartitioningError, VerificationError
from repro.common.fixedpoint import QFormat
from repro.dsp import FirFilter
from repro.flow import (
    AbstractionLevel,
    AsicProcess,
    DesignFlow,
    DesignFlowStage,
    DseConfig,
    DesignPoint,
    FpgaDevice,
    ImplementationCandidate,
    PartitioningWeights,
    SystemFunction,
    build_gyro_design_flow,
    compare_traces,
    estimate_asic,
    estimate_fpga_prototype,
    evaluate_point,
    explore,
    gyro_system_functions,
    pareto_front,
    partition,
    recommend,
    require_pass,
    verify_block_refinement,
)
from repro.platform import Domain, GenericSensorPlatform


class TestDesignFlow:
    def test_stage_ordering_and_execution(self):
        flow = DesignFlow()
        order = []
        flow.add_stage(DesignFlowStage("a", AbstractionLevel.SYSTEM, [],
                                       lambda ctx: order.append("a") or {}))
        flow.add_stage(DesignFlowStage("b", AbstractionLevel.RTL, ["a"],
                                       lambda ctx: order.append("b") or {}))
        results = flow.execute()
        assert [r.name for r in results] == ["a", "b"]
        assert flow.succeeded
        assert order == ["a", "b"]

    def test_duplicate_and_unknown_dependency_rejected(self):
        flow = DesignFlow()
        flow.add_stage(DesignFlowStage("a", AbstractionLevel.SYSTEM))
        with pytest.raises(ConfigurationError):
            flow.add_stage(DesignFlowStage("a", AbstractionLevel.SYSTEM))
        with pytest.raises(ConfigurationError):
            flow.add_stage(DesignFlowStage("b", AbstractionLevel.RTL, ["zzz"]))

    def test_failure_blocks_dependents(self):
        flow = DesignFlow()

        def boom(ctx):
            raise RuntimeError("synthesis failed")

        flow.add_stage(DesignFlowStage("a", AbstractionLevel.SYSTEM, [], boom))
        flow.add_stage(DesignFlowStage("b", AbstractionLevel.RTL, ["a"]))
        results = flow.execute(stop_on_failure=False)
        assert not results[0].passed
        assert not results[1].passed
        assert "blocked" in results[1].message
        assert not flow.succeeded

    def test_gyro_flow_structure(self):
        flow = build_gyro_design_flow()
        names = flow.stage_names()
        assert names[0] == "system_model"
        assert "partitioning" in names
        assert names[-1] == "asic_integration"
        results = flow.execute()
        assert flow.succeeded
        report = flow.report()
        assert "prototyping" in report and "PASS" in report

    def test_gyro_flow_with_actions_and_context(self):
        seen = {}
        flow = build_gyro_design_flow({
            "system_model": lambda ctx: ctx.update(model="matlab") or {"blocks": 12},
            "partitioning": lambda ctx: {"analog": 4, "digital": 6, "software": 2},
        })
        flow.execute()
        assert flow.succeeded
        assert flow.results["system_model"].details["blocks"] == 12
        assert flow.context["model"] == "matlab"


class TestPartitioning:
    def test_gyro_partition_shape(self):
        result = partition(gyro_system_functions())
        # the paper's argument: sample-rate signal processing goes to
        # hardwired digital, services go to software, only the physical
        # interface stays analog
        assert result.domain_of("drive_pll") is Domain.DIGITAL_HW
        assert result.domain_of("rate_demodulation") is Domain.DIGITAL_HW
        assert result.domain_of("pickoff_acquisition") is Domain.ANALOG
        assert result.domain_of("communication_services") is Domain.SOFTWARE
        assert result.domain_of("status_monitoring") is Domain.SOFTWARE

    def test_costs_roll_up(self):
        result = partition(gyro_system_functions())
        assert result.analog_area_mm2 > 0
        assert result.digital_gates > 0
        assert result.code_bytes > 0
        assert result.total_cost > 0

    def test_infeasible_function_raises(self):
        functions = [SystemFunction("impossible", 1e6, [
            ImplementationCandidate(Domain.SOFTWARE, max_update_rate_hz=100.0,
                                    flexibility=1.0)])]
        with pytest.raises(PartitioningError):
            partition(functions)

    def test_weights_change_choice(self):
        functions = [SystemFunction("filter", 1000.0, [
            ImplementationCandidate(Domain.ANALOG, area_mm2=1.0, power_mw=0.1),
            ImplementationCandidate(Domain.DIGITAL_HW, gates=50_000, power_mw=5.0),
        ])]
        analog_cheap = partition(functions, PartitioningWeights(area_mm2=0.01,
                                                                power_mw=0.01))
        digital_cheap = partition(functions, PartitioningWeights(area_mm2=100.0,
                                                                 gates=1e-6,
                                                                 power_mw=0.01))
        assert analog_cheap.domain_of("filter") is Domain.ANALOG
        assert digital_cheap.domain_of("filter") is Domain.DIGITAL_HW

    def test_functions_in_domain(self):
        result = partition(gyro_system_functions())
        assert "communication_services" in result.functions_in_domain(Domain.SOFTWARE)


class TestPrototypeAndAsic:
    def test_fpga_estimate_matches_paper_scale(self):
        instance = GenericSensorPlatform().derive("gyro")
        report = estimate_fpga_prototype(instance, clock_mhz=20.0)
        # Section 4.3: ~200 kgates in a X2S600E at 20 MHz
        assert 150_000 < report.design_gates < 250_000
        assert report.fits
        assert report.timing_met
        assert "X2S600E" in report.summary()

    def test_fpga_overflow_detected(self):
        instance = GenericSensorPlatform().derive("gyro")
        tiny = FpgaDevice(name="tiny", system_gates=100_000)
        report = estimate_fpga_prototype(instance, device=tiny)
        assert not report.fits

    def test_fpga_timing_violation(self):
        instance = GenericSensorPlatform().derive("gyro")
        report = estimate_fpga_prototype(instance, clock_mhz=80.0)
        assert not report.timing_met
        with pytest.raises(ConfigurationError):
            estimate_fpga_prototype(instance, clock_mhz=0.0)

    def test_asic_estimate_matches_paper_scale(self):
        instance = GenericSensorPlatform().derive("gyro")
        report = estimate_asic(instance)
        # the paper's analog front-end chip is 12 mm2 in 0.35 um CMOS
        assert 4.0 < report.analog_area_mm2 < 15.0
        assert report.total_die_mm2 > report.analog_area_mm2
        assert "0.35" in report.summary()

    def test_asic_process_parameters(self):
        instance = GenericSensorPlatform().derive("gyro")
        dense = estimate_asic(instance, AsicProcess(gate_density_kgates_per_mm2=50.0))
        sparse = estimate_asic(instance, AsicProcess(gate_density_kgates_per_mm2=10.0))
        assert dense.digital_area_mm2 < sparse.digital_area_mm2


class TestVerification:
    def test_identical_traces_pass(self):
        x = np.linspace(0, 1, 100)
        report = compare_traces(x, x, tolerance=1e-9)
        assert report.passed
        assert report.max_abs_error == 0.0

    def test_deviating_trace_fails(self):
        x = np.zeros(50)
        y = np.zeros(50)
        y[25] = 1.0
        report = compare_traces(x, y, tolerance=0.1)
        assert not report.passed
        with pytest.raises(VerificationError):
            require_pass(report)

    def test_skip_fraction_ignores_startup(self):
        x = np.zeros(100)
        y = np.zeros(100)
        y[0] = 5.0
        assert not compare_traces(x, y, 0.1).passed
        assert compare_traces(x, y, 0.1, skip_fraction=0.1).passed

    def test_shape_and_bounds_validation(self):
        with pytest.raises(ConfigurationError):
            compare_traces(np.zeros(3), np.zeros(4), 0.1)
        with pytest.raises(ConfigurationError):
            compare_traces(np.zeros(0), np.zeros(0), 0.1)
        with pytest.raises(ConfigurationError):
            compare_traces(np.zeros(3), np.zeros(3), 0.1, skip_fraction=1.5)

    def test_block_refinement_fixed_point_filter(self):
        taps = [0.25, 0.25, 0.25, 0.25]
        reference = FirFilter(taps)
        refined = FirFilter(taps, output_format=QFormat(int_bits=1, frac_bits=12))
        stimulus = np.sin(np.linspace(0, 20, 200))
        report = verify_block_refinement(reference, refined, stimulus,
                                         tolerance=1e-3)
        assert report.passed

    def test_block_refinement_detects_wrong_gain(self):
        report = verify_block_refinement(Gain(1.0), Gain(1.1),
                                         np.ones(50), tolerance=0.01)
        assert not report.passed


class TestDse:
    def test_explore_returns_sorted_scores(self):
        evaluated = explore(DseConfig(adc_bits=(10, 12), dsp_word_lengths=(16,),
                                      filter_orders=(2, 4), bandwidths_hz=(50.0,)))
        scores = [e.score for e in evaluated]
        assert scores == sorted(scores)
        assert len(evaluated) == 4

    def test_more_adc_bits_less_noise(self):
        low = evaluate_point(DesignPoint(8, 16, 4, 50.0))
        high = evaluate_point(DesignPoint(14, 16, 4, 50.0))
        assert high.noise_density_dps_rthz < low.noise_density_dps_rthz

    def test_more_word_length_more_gates(self):
        small = evaluate_point(DesignPoint(12, 12, 4, 50.0))
        large = evaluate_point(DesignPoint(12, 24, 4, 50.0))
        assert large.digital_gates > small.digital_gates

    def test_pareto_front_is_nondominated(self):
        evaluated = explore()
        front = pareto_front(evaluated)
        assert front
        for a in front:
            assert not any(
                b.noise_density_dps_rthz < a.noise_density_dps_rthz
                and b.digital_gates < a.digital_gates for b in evaluated)

    def test_recommend_meets_noise_requirement(self):
        best = recommend()
        assert best.noise_density_dps_rthz <= 0.13
        # the recommendation is the lowest-score point among the feasible ones
        feasible = [e for e in explore() if e.noise_density_dps_rthz <= 0.13]
        assert best.score == pytest.approx(min(e.score for e in feasible))

    def test_recommend_can_fail(self):
        impossible = DseConfig(adc_bits=(8,), dsp_word_lengths=(12,),
                               filter_orders=(2,), bandwidths_hz=(75.0,),
                               mechanical_noise_dps_rthz=1.0)
        with pytest.raises(ConfigurationError):
            recommend(impossible)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            DseConfig(adc_bits=())

    def test_summaries(self):
        assert "gates" in evaluate_point(DesignPoint(12, 16, 4, 50.0)).summary()


class TestSimulationBackedDse:
    def test_platform_config_mapping(self):
        from repro.flow import platform_config_for_point

        point = DesignPoint(10, 16, 2, 25.0)
        config = platform_config_for_point(point)
        assert config.frontend.adc.bits == 10
        fmt = config.conditioner.sense.output_format
        assert fmt.word_length == 16
        assert config.conditioner.drive.output_format == fmt
        assert config.conditioner.sense.output_filter_order == 2
        assert config.conditioner.sense.output_bandwidth_hz == 25.0

    def test_word_length_floor_rejected(self):
        from repro.flow import platform_config_for_point

        with pytest.raises(ConfigurationError):
            platform_config_for_point(DesignPoint(12, 6, 4, 50.0))

    def test_simulate_point_before_startup_reports_not_started(self):
        # a window shorter than start-up must be reported honestly, not
        # as zero noise
        from repro.flow import simulate_point

        evaluated = evaluate_point(DesignPoint(12, 16, 2, 50.0))
        simulated = simulate_point(evaluated, duration_s=0.05)
        assert not simulated.started
        assert not simulated.responsive
        assert simulated.turn_on_time_s is None
        assert np.isnan(simulated.measured_noise_dps_rthz)
        assert "start-up" in simulated.summary()

    def test_simulated_point_responsive_logic(self):
        from repro.flow import SimulatedPoint

        evaluated = evaluate_point(DesignPoint(12, 16, 2, 50.0))
        dead = SimulatedPoint(evaluated, float("nan"), float("nan"), 0.0, 0.4)
        assert dead.started and not dead.responsive
        assert "quantisation" in dead.summary()
        live = SimulatedPoint(evaluated, 0.08, 1.5, -3.8e-5, 0.4)
        assert live.responsive
        assert "measured noise" in live.summary()
        assert live.point is evaluated.point

    def test_responsive_handles_nan_scale(self):
        # regression: the old `x == x` check; nan scale means the
        # measurement never produced a response, so not responsive
        from repro.flow import SimulatedPoint

        evaluated = evaluate_point(DesignPoint(12, 16, 2, 50.0))
        nan_scale = SimulatedPoint(evaluated, float("nan"), float("nan"),
                                   float("nan"), 0.4)
        assert nan_scale.started
        assert not nan_scale.responsive

    def test_sweep_needs_candidates(self):
        from repro.flow import sweep

        with pytest.raises(ConfigurationError):
            sweep(points=[])


class TestSimulationBackedSweep:
    """The full simulation-backed DSE sweep (heavyweight acceptance).

    One sweep() call validates eight design points as one 24-lane
    campaign (the two filter orders are two kernel structures of 12
    lanes, each too few to fill a lockstep fleet, so every lane runs on
    its own kernel) and must keep reporting the known Q1.14 failure mode
    honestly: with the 16-bit (Q1.14) datapath the order-4 output
    filter's per-section quantisation wipes out the rate signal, so
    those points come back started-but-unresponsive.
    """

    def test_sweep_validates_points_and_reports_q114_failure(self):
        from repro.flow import sweep

        points = [evaluate_point(DesignPoint(adc, 16, order, 50.0))
                  for order in (2, 4) for adc in (8, 10, 12, 14)]
        simulated = sweep(points=points)
        assert len(simulated) == 8
        by_order = {2: [], 4: []}
        for sim in simulated:
            assert sim.started, sim.summary()
            by_order[sim.point.output_filter_order].append(sim)
        # order-2 datapaths respond to rate...
        for sim in by_order[2]:
            assert sim.responsive, sim.summary()
            assert sim.measured_scale_channel_per_dps != 0.0
        # ...the Q1.14 order-4 output filter quantises the signal to zero
        for sim in by_order[4]:
            assert sim.responsive is False, sim.summary()
            assert sim.measured_scale_channel_per_dps == 0.0
            assert "quantisation" in sim.summary()
