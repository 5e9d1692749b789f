"""Graceful degradation: the platform's safe-mode monitor.

The paper's CPU "constantly checks the system status by accessing the
several readable registers spread along the processing chain"; this
module gives it something to check when the analog section misbehaves.
:class:`SafeModeMonitor` watches the front end's overload flag at every
campaign chunk boundary (and after every direct ``run``), latches a
*safe mode* on the rising edge of an overload episode, counts episodes,
and accumulates the time spent saturated.  Its register bank —
``safety_status`` / ``safety_event_count`` / ``safety_watchdog`` — is
bridge-attachable (MOVX window ``0x8200``) so the 8051 firmware can
poll the latch and clear it by kicking the watchdog, closing the
detect → degrade → recover loop in software.

Observation happens at chunk boundaries only, where every engine
exposes identical platform state, so the monitor (and the result fields
it stamps) is bit-identical across the reference and compiled engines,
both lane-kernel backends and both executors.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..common.registers import BitField, RegisterFile

#: Bridge-relative base of the safety registers.  Must not collide with
#: the trim bank (0x00..0x10) or the DSP monitor registers
#: (0x100..0x10C): the MCU bus bridge resolves addresses first-match
#: across the attached register files.
SAFETY_REGISTER_BASE = 0x200

SAFETY_REGISTER_MAP = {
    "safety_status": SAFETY_REGISTER_BASE + 0x00,
    "safety_event_count": SAFETY_REGISTER_BASE + 0x02,
    "safety_watchdog": SAFETY_REGISTER_BASE + 0x04,
}


def build_safety_registers() -> RegisterFile:
    """The safe-mode register bank (read by firmware over the bridge)."""
    bank = RegisterFile("safety")
    bank.define(
        "safety_status", SAFETY_REGISTER_MAP["safety_status"], access="ro",
        fields=[BitField("safe_mode", 0, doc="latched overload episode"),
                BitField("overload", 1, doc="live front-end overload flag")],
        doc="safe-mode latch and live overload status")
    bank.define(
        "safety_event_count", SAFETY_REGISTER_MAP["safety_event_count"],
        access="ro", doc="number of overload episodes since reset")
    bank.define(
        "safety_watchdog", SAFETY_REGISTER_MAP["safety_watchdog"],
        fields=[BitField("kick", 0, doc="write 1 to clear the latch")],
        doc="firmware service register: kicking clears safe mode")
    return bank


class SafeModeMonitor:
    """Latches safe mode from the front-end overload flag.

    The latch is *sticky*: one overload episode (a rising edge of the
    overload flag between observations) sets ``safe_mode`` and bumps the
    episode counter exactly once; the flag dropping does not clear the
    latch — only a power cycle (:meth:`reset`) or a firmware watchdog
    kick (:meth:`service`, or a bus write to ``safety_watchdog``) does.
    """

    def __init__(self) -> None:
        self.registers = build_safety_registers()
        self.registers.register("safety_watchdog").on_write(self._on_watchdog)
        self._clear_state()
        self._publish(False)

    def _clear_state(self) -> None:
        self.safe_mode = False
        self.event_count = 0
        self.first_latch_s: Optional[float] = None
        self.overload_time_s = 0.0
        self._prev_overload = False

    # -- observation --------------------------------------------------------

    def observe(self, now_s: float, overload: bool, elapsed_s: float) -> None:
        """Account one observation window ending at ``now_s``.

        ``overload`` is the front-end flag at the window's end (the
        chunk boundary); ``elapsed_s`` is the window length, credited to
        the saturation time when the window ends saturated.
        """
        if overload:
            self.overload_time_s += elapsed_s
            if not self._prev_overload:
                self.event_count += 1
                self.safe_mode = True
                if self.first_latch_s is None:
                    self.first_latch_s = now_s
        self._prev_overload = overload
        self._publish(overload)

    def _publish(self, overload: bool) -> None:
        status = self.registers.register("safety_status")
        status.hw_write_field("safe_mode", int(self.safe_mode))
        status.hw_write_field("overload", int(overload))
        self.registers.register("safety_event_count").hw_write(
            self.event_count & 0xFFFF)

    # -- firmware service ---------------------------------------------------

    def _on_watchdog(self, value: int) -> None:
        if value & 0x1:
            self.safe_mode = False
            status = self.registers.register("safety_status")
            status.hw_write_field("safe_mode", 0)
            # the kick bit is self-clearing
            self.registers.register("safety_watchdog").hw_write(0)

    def service(self) -> None:
        """Clear the safe-mode latch (what a watchdog kick does)."""
        self._on_watchdog(1)

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Power-cycle: clear the latch, counters and registers."""
        self._clear_state()
        self.registers.reset()
        self._publish(False)

    def result_fields(self) -> Dict[str, object]:
        """The monitor snapshot stamped onto ``GyroSimulationResult``."""
        return {
            "safe_mode": self.safe_mode,
            "safe_mode_events": self.event_count,
            "safe_mode_entry_s": self.first_latch_s,
            "overload_time_s": self.overload_time_s,
        }
