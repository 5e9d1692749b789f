"""Tests for the fault-injection subsystem (``repro.faults``).

The contract under test: every fault model is declarative and picklable,
arms and disarms exactly at the campaign's chunk boundaries, produces
bit-identical traces on the reference and compiled engines (fleets in
both layouts) and on both executors, never leaks into a neighbouring fleet
lane, and is fully
restored when its scenario completes.  On top of that, the platform's
graceful-degradation path — overload observation, the safe-mode latch,
the firmware-visible safety registers and the resilience extractors —
is locked down here.
"""

import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from strategies.settings import STANDARD_SETTINGS

from repro.common import ConfigurationError
from repro.common.registers import BitField, Register, RegisterFile
from repro.eval.metrics import (
    DetectionLatency,
    PostFaultBiasShift,
    SurvivedVerdict,
    TimeInSaturation,
)
from repro.faults import (
    AfeSaturation,
    FaultModel,
    SensorDropout,
    StuckAdcCode,
    StuckRegisterField,
    SupplyDroop,
)
from repro.mcu.subsystem import McuSubsystem
from repro.platform import GyroPlatform
from repro.platform.result import GyroSimulationResult
from repro.scenarios import Campaign, Scenario, fault_scenario
from repro.scenarios.library import settled_output_scenario
from repro.sensors import Environment

TRACE_FIELDS = (
    "time_s", "true_rate_dps", "temperature_c", "rate_output_dps",
    "rate_output_v", "amplitude_control", "amplitude_error", "phase_error",
    "vco_control", "pll_locked", "running")

SAFETY_FIELDS = ("safe_mode", "safe_mode_events", "safe_mode_entry_s",
                 "overload_time_s")

#: The fault grid every cross-engine test sweeps (window 10..20 ms of a
#: 30 ms scenario, except the permanent saturation).
FAULT_GRID = {
    "afe_saturation": AfeSaturation(t_start=0.01, t_stop=0.02),
    "supply_droop": SupplyDroop(t_start=0.01, t_stop=0.02, scale=0.85,
                                profile=((0.0, 0.85), (0.004, 0.7))),
    "sensor_dropout": SensorDropout(t_start=0.01, t_stop=0.02),
    "stuck_adc": StuckAdcCode(t_start=0.01, t_stop=0.02,
                              channel="secondary", code=150),
    "stuck_trim": StuckRegisterField(t_start=0.01, t_stop=0.02,
                                     register="afe_secondary_gain", value=0),
    "permanent_saturation": AfeSaturation(t_start=0.015),
}


def assert_results_identical(a, b, fields=TRACE_FIELDS):
    for field in fields:
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    for field in SAFETY_FIELDS:
        assert getattr(a, field) == getattr(b, field), field


def assert_metrics_identical(a: dict, b: dict):
    assert set(a) == set(b)
    for key in a:
        va, vb = a[key], b[key]
        if isinstance(va, float) and isinstance(vb, float) \
                and np.isnan(va) and np.isnan(vb):
            continue
        assert va == vb, key


@pytest.fixture(scope="module")
def started_platform():
    platform = GyroPlatform()
    platform.start()
    return platform


def clean_scenario(settle_s: float = 0.03) -> Scenario:
    return settled_output_scenario(80.0, settle_s=settle_s, name="clean")


# ---------------------------------------------------------------------------
# register fabric: force / release / write hooks
# ---------------------------------------------------------------------------

class TestRegisterForce:
    def build(self, access="rw"):
        bank = RegisterFile("t")
        bank.define("reg", 0x00, access=access,
                    fields=[BitField("lo", 0, 8, reset=0x0F),
                            BitField("hi", 8, 8, reset=0x0F)])
        return bank

    def test_force_overlays_reads_on_rw_register(self):
        bank = self.build()
        reg = bank.register("reg")
        reg.force(0x00FF, 0x00AA)
        assert reg.forced
        assert reg.read() == 0x0FAA
        assert reg.read_field("lo") == 0xAA
        assert reg.read_field("hi") == 0x0F

    def test_writes_keep_updating_storage_underneath(self):
        bank = self.build()
        reg = bank.register("reg")
        reg.force(0xFFFF, 0x1234)
        bank.write("reg", 0xBEEF)
        assert reg.read() == 0x1234      # stuck-at wins on reads
        reg.release()
        assert reg.read() == 0xBEEF      # maintained state shows through

    def test_force_applies_to_ro_and_w1c_paths(self):
        ro = self.build(access="ro").register("reg")
        ro.force(0x0001, 0x0000)
        assert ro.read() & 0x1 == 0      # stuck-at-0 on a status bit
        w1c = self.build(access="w1c").register("reg")
        w1c.force(0x0001, 0x0001)
        w1c.write(0x0001)                # the clear is absorbed
        assert w1c.read() & 0x1 == 1

    def test_force_mask_is_clamped_to_width(self):
        reg = Register("r", 0x0, width=8)
        reg.force(0xFFFF, 0xFFFF)
        assert reg.read() == 0xFF

    def test_per_register_write_hook_fires_on_any_write_path(self):
        bank = self.build()
        seen = []
        bank.register("reg").on_write(seen.append)
        bank.write("reg", 0x0001)            # RegisterFile path
        bank.register("reg").write(0x0002)   # direct path (bus bridge)
        assert seen == [0x0001, 0x0002]

    def test_hw_write_does_not_fire_hooks(self):
        bank = self.build()
        seen = []
        bank.register("reg").on_write(seen.append)
        bank.register("reg").hw_write(0x55)
        assert seen == []

    def test_refresh_refires_callbacks_without_a_write(self):
        bank = self.build()
        seen = []
        bank.on_write("reg", seen.append)
        bank.register("reg").force(0x00FF, 0x0042)
        bank.refresh("reg")
        assert seen == [0x0F42]

    def test_old_pickles_gain_force_defaults(self):
        reg = Register("r", 0x0)
        state = reg.__dict__.copy()
        # simulate a pickle from before the fault fabric existed
        state.pop("_force_mask", None)
        restored = Register.__new__(Register)
        restored.__dict__.update(state)
        assert not restored.forced
        assert restored._write_hooks == ()


# ---------------------------------------------------------------------------
# fault model validation
# ---------------------------------------------------------------------------

class TestFaultValidation:
    def test_bad_windows_rejected(self):
        with pytest.raises(ConfigurationError):
            AfeSaturation(t_start=-0.1)
        with pytest.raises(ConfigurationError):
            AfeSaturation(t_start=0.02, t_stop=0.01)

    def test_supply_droop_profile_validated(self):
        with pytest.raises(ConfigurationError):
            SupplyDroop(scale=0.0)
        with pytest.raises(ConfigurationError):
            SupplyDroop(profile=((0.01, 0.9), (0.005, 0.8)))
        with pytest.raises(ConfigurationError):
            SupplyDroop(profile=((0.0, -0.5),))

    def test_stuck_adc_channel_validated(self):
        with pytest.raises(ConfigurationError):
            StuckAdcCode(channel="tertiary")

    def test_stuck_register_needs_a_name(self, started_platform):
        with pytest.raises(ConfigurationError):
            StuckRegisterField().inject(copy.deepcopy(started_platform))

    def test_scenario_rejects_non_fault_objects(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="bad", environment=Environment.still(),
                     duration_s=0.01, faults=(object(),))

    def test_fault_models_pickle(self):
        for fault in FAULT_GRID.values():
            assert pickle.loads(pickle.dumps(fault)) == fault


# ---------------------------------------------------------------------------
# cross-engine / cross-executor bit-identity
# ---------------------------------------------------------------------------

class TestFaultBitIdentity:
    @pytest.mark.parametrize("fault_name", sorted(FAULT_GRID))
    def test_engines_identical_and_fault_perturbs(self, started_platform,
                                                  fault_name, kernel_backend):
        fault = FAULT_GRID[fault_name]
        program = [fault_scenario(fault, duration_s=0.03,
                                  name=f"f-{fault_name}"),
                   clean_scenario()]
        ref = Campaign(program, name="x").run(started_platform,
                                              engine="reference")
        for _ in kernel_backend:
            fleet = Campaign(program, name="x").run(started_platform,
                                                    engine="compiled")
            for lane_ref, lane_eng in zip(ref.lanes, fleet.lanes):
                for a, b in zip(lane_ref.outcomes, lane_eng.outcomes):
                    assert_results_identical(a.result, b.result)
                    assert_metrics_identical(a.metrics, b.metrics)
        # the fault must actually do something: the faulted lane's trace
        # diverges from the clean lane's after activation
        faulted = ref.lanes[0].outcomes[0].result.rate_output_dps
        clean = ref.lanes[1].outcomes[0].result.rate_output_dps
        tail = slice(faulted.size // 3, None)
        assert not np.array_equal(faulted[tail], clean[tail])

    def test_sharded_identical_and_no_cross_lane_leakage(self,
                                                         started_platform,
                                                         tmp_path):
        program = [fault_scenario(FAULT_GRID["stuck_adc"], duration_s=0.03,
                                  name="f-shard"),
                   clean_scenario()]
        local = Campaign(program, name="s").run(started_platform,
                                                engine="compiled")
        sharded = Campaign(program, name="s").run(
            started_platform, engine="compiled", executor="sharded", workers=2,
            manifest_dir=str(tmp_path))
        assert sharded.complete
        for lane_a, lane_b in zip(local.lanes, sharded.lanes):
            for a, b in zip(lane_a.outcomes, lane_b.outcomes):
                assert_results_identical(a.result, b.result)
                assert_metrics_identical(a.metrics, b.metrics)
        # the clean lane next to a faulted one equals a solo clean run
        solo = Campaign([clean_scenario()], name="solo").run(
            started_platform, engine="compiled")
        assert_results_identical(solo.lanes[0].outcomes[0].result,
                                 local.lanes[1].outcomes[0].result)

    def test_fault_restored_after_scenario(self, started_platform):
        platform = copy.deepcopy(started_platform)
        before = {
            "offset_v": platform.frontend.config.charge_amplifier.offset_v,
            "gain": platform.sensor._pickoff_gain,
            "adc": (platform.frontend.secondary_adc._code_min,
                    platform.frontend.secondary_adc._code_max),
            "trim": platform.frontend.trim.register(
                "afe_secondary_gain").value,
        }
        program = [[fault_scenario(FAULT_GRID[name], duration_s=0.02,
                                   name=f"seq-{name}")
                    for name in ("afe_saturation", "sensor_dropout",
                                 "stuck_adc", "stuck_trim",
                                 "permanent_saturation")]]
        Campaign(program, name="restore").run(platforms=[platform])
        assert platform.frontend.config.charge_amplifier.offset_v \
            == before["offset_v"]
        assert platform.sensor._pickoff_gain == before["gain"]
        assert (platform.frontend.secondary_adc._code_min,
                platform.frontend.secondary_adc._code_max) == before["adc"]
        trim = platform.frontend.trim.register("afe_secondary_gain")
        assert not trim.forced
        assert trim.value == before["trim"]


# ---------------------------------------------------------------------------
# scenario digests (Hypothesis)
# ---------------------------------------------------------------------------

def _grid_faults(indices):
    names = sorted(FAULT_GRID)
    return tuple(FAULT_GRID[names[i]] for i in indices)


class TestFaultDigests:
    @STANDARD_SETTINGS
    @given(st.lists(st.integers(0, len(FAULT_GRID) - 1), min_size=1,
                    max_size=4, unique=True),
           st.randoms(use_true_random=False))
    def test_digest_stable_and_order_insensitive(self, indices, rng):
        faults = _grid_faults(indices)
        shuffled = list(faults)
        rng.shuffle(shuffled)
        base = Scenario(name="d", environment=Environment.still(),
                        duration_s=0.01, faults=faults)
        again = Scenario(name="d", environment=Environment.still(),
                         duration_s=0.01, faults=faults)
        reordered = Scenario(name="d", environment=Environment.still(),
                             duration_s=0.01, faults=tuple(shuffled))
        assert base.digest() == again.digest() == reordered.digest()

    @STANDARD_SETTINGS
    @given(st.floats(0.0, 0.01, allow_nan=False),
           st.floats(0.011, 0.02, allow_nan=False),
           st.floats(1.0, 20.0, allow_nan=False))
    def test_digest_tracks_fault_parameters(self, t_start, t_stop, drive_v):
        def digest(fault):
            return Scenario(name="d", environment=Environment.still(),
                            duration_s=0.05, faults=(fault,)).digest()
        plain = Scenario(name="d", environment=Environment.still(),
                         duration_s=0.05)
        fault = AfeSaturation(t_start=t_start, t_stop=t_stop,
                              drive_v=drive_v)
        assert digest(fault) != plain.digest()
        nudged = AfeSaturation(t_start=t_start, t_stop=t_stop,
                               drive_v=drive_v + 1.0)
        assert digest(fault) != digest(nudged)
        assert digest(fault) == digest(AfeSaturation(
            t_start=t_start, t_stop=t_stop, drive_v=drive_v))


# ---------------------------------------------------------------------------
# safe-mode latch and graceful degradation
# ---------------------------------------------------------------------------

class TestSafeModeLatch:
    def run_windows(self, started_platform, windows, duration_s=0.03):
        platform = copy.deepcopy(started_platform)
        faults = tuple(AfeSaturation(t_start=a, t_stop=b)
                       for a, b in windows)
        scenario = Scenario(name="latch",
                            environment=Environment.constant_rate(80.0),
                            duration_s=duration_s, faults=faults)
        result = Campaign([scenario], name="latch").run(platforms=[platform])
        return platform, result.lanes[0].outcomes[0].result

    def test_latches_exactly_once_per_saturation_window(self,
                                                        started_platform):
        platform, result = self.run_windows(started_platform,
                                            [(0.01, 0.02)])
        assert result.safe_mode is True          # sticky past the window
        assert result.safe_mode_events == 1      # exactly one episode
        assert result.safe_mode_entry_s is not None
        assert result.overload_time_s == pytest.approx(0.01)
        assert platform.safety.safe_mode

    def test_two_windows_latch_two_events(self, started_platform):
        _, result = self.run_windows(started_platform,
                                     [(0.005, 0.01), (0.02, 0.025)])
        assert result.safe_mode is True
        assert result.safe_mode_events == 2
        assert result.overload_time_s == pytest.approx(0.01)

    def test_watchdog_service_clears_latch_not_count(self, started_platform):
        platform, _ = self.run_windows(started_platform, [(0.01, 0.02)])
        monitor = platform.safety
        assert monitor.safe_mode and monitor.event_count == 1
        monitor.service()
        assert not monitor.safe_mode
        assert monitor.event_count == 1          # history survives service
        status = monitor.registers.register("safety_status")
        assert status.read_field("safe_mode") == 0

    def test_platform_reset_clears_monitor(self, started_platform):
        platform, _ = self.run_windows(started_platform, [(0.01, 0.02)])
        platform.reset()
        monitor = platform.safety
        assert not monitor.safe_mode
        assert monitor.event_count == 0
        assert monitor.first_latch_s is None
        assert monitor.overload_time_s == 0.0

    def test_frontend_reset_clears_overload_flag(self, started_platform):
        platform = copy.deepcopy(started_platform)
        Campaign([Scenario(name="sat",
                           environment=Environment.constant_rate(80.0),
                           duration_s=0.01,
                           faults=(AfeSaturation(),))],
                 name="ov").run(platforms=[platform])
        # force the flag on, then power-cycle the front end
        platform.frontend._overload = True
        platform.frontend.trim.register("afe_status").hw_write_field(
            "overload", 1)
        platform.frontend.reset()
        assert platform.frontend.overload is False
        assert platform.frontend.trim.register("afe_status").read_field(
            "overload") == 0

    def test_direct_run_stamps_safety_fields(self, started_platform):
        platform = copy.deepcopy(started_platform)
        result = platform.run(Environment.still(), 0.005)
        assert result.safe_mode is False
        assert result.safe_mode_events == 0
        assert result.overload_time_s == 0.0

    def test_safety_fields_serialise(self, started_platform):
        _, result = self.run_windows(started_platform, [(0.01, 0.02)])
        restored = GyroSimulationResult.from_dict(result.to_dict())
        for field in SAFETY_FIELDS:
            assert getattr(restored, field) == getattr(result, field)


# ---------------------------------------------------------------------------
# firmware closes the loop over the bridge
# ---------------------------------------------------------------------------

class TestFirmwareService:
    def test_firmware_polls_and_clears_the_latch(self, started_platform):
        platform = copy.deepcopy(started_platform)
        Campaign([fault_scenario(AfeSaturation(t_start=0.005, t_stop=0.01),
                                 duration_s=0.02)],
                 name="fw").run(platforms=[platform])
        assert platform.safety.safe_mode

        mcu = McuSubsystem()
        mcu.connect_safety_registers(platform.safety.registers)
        mcu.load_safety_firmware()
        mcu.run()
        rx = mcu.uart.transmitted_bytes()
        assert len(rx) == 2
        assert rx[0] & 0x1 == 1      # latched when polled
        assert rx[1] & 0x1 == 0      # cleared after the watchdog kick
        assert platform.safety.safe_mode is False
        assert platform.safety.event_count == 1
        # the kick bit self-clears
        assert platform.safety.registers.read("safety_watchdog") == 0

    def test_firmware_reports_clean_device_without_kicking(self):
        platform = GyroPlatform()
        mcu = McuSubsystem()
        mcu.connect_safety_registers(platform.safety.registers)
        mcu.load_safety_firmware()
        mcu.run()
        rx = mcu.uart.transmitted_bytes()
        assert len(rx) == 2 and rx[0] & 0x1 == 0 and rx[1] & 0x1 == 0


# ---------------------------------------------------------------------------
# resilience extractors
# ---------------------------------------------------------------------------

class TestResilienceExtractors:
    @pytest.fixture(scope="class")
    def saturated_outcome(self, started_platform):
        scenario = fault_scenario(AfeSaturation(t_start=0.01, t_stop=0.02),
                                  duration_s=0.03)
        result = Campaign([scenario], name="rx").run(started_platform,
                                                     engine="compiled")
        return result.lanes[0].outcomes[0]

    def test_standard_metrics_present(self, saturated_outcome):
        metrics = saturated_outcome.metrics
        assert set(metrics) == {"detection_latency_s", "time_in_saturation_s",
                                "post_fault_bias_shift_dps", "survived"}
        assert metrics["time_in_saturation_s"] == pytest.approx(0.01)
        # latched at the first boundary after onset: one window's worth
        assert 0.0 <= metrics["detection_latency_s"] <= 0.011
        assert metrics["survived"] is True
        assert abs(metrics["post_fault_bias_shift_dps"]) < 1.0

    def test_detection_latency_none_without_latch(self, started_platform):
        result = Campaign([clean_scenario(0.02)], name="nl").run(
            started_platform, engine="compiled")
        outcome = result.lanes[0].outcomes[0]
        assert DetectionLatency(0.0)(None, outcome.result) is None
        assert TimeInSaturation()(None, outcome.result) == 0.0

    def test_verdict_fails_when_chain_stops_running(self, saturated_outcome):
        import dataclasses as dc
        result = saturated_outcome.result
        dead = dc.replace(result, running=np.zeros_like(result.running))
        assert SurvivedVerdict(0.01, 0.02)(None, dead) is False

    def test_bias_shift_nan_when_window_covers_record(self,
                                                      saturated_outcome):
        result = saturated_outcome.result
        shift = PostFaultBiasShift(0.0, 1e9)(None, result)
        assert np.isnan(shift)

    def test_extractors_pickle(self):
        for extractor in (DetectionLatency(0.01), TimeInSaturation(),
                          PostFaultBiasShift(0.01, 0.02),
                          SurvivedVerdict(0.01, 0.02)):
            assert pickle.loads(pickle.dumps(extractor)) == extractor
