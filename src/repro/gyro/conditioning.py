"""Complete gyro conditioning chain (the customised DSP block of Fig. 2/4).

:class:`GyroConditioner` ties together the drive loop (PLL + AGC), the
open-loop sense chain, the optional force-rebalance controller and the
start-up sequencer, and publishes the monitoring information into a
register file — the "several readable registers spread along the
processing chain" that the 8051 firmware polls (PLL lock, amplitude,
rate output, status).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..common.exceptions import ConfigurationError
from ..common.fixedpoint import DSP16, QFormat
from ..common.registers import BitField, Register, RegisterFile
from .closedloop import ForceRebalanceConfig, ForceRebalanceController
from .drive import DriveLoop, DriveLoopConfig
from .sense import SenseChain, SenseChainConfig
from .startup import StartupConfig, StartupSequencer

#: Address map of the DSP status/monitor registers (16-bit bridge bus).
DSP_REGISTER_MAP = {
    "dsp_status": 0x100,
    "dsp_rate_out": 0x102,
    "dsp_amplitude": 0x104,
    "dsp_vco_control": 0x106,
    "dsp_phase_error": 0x108,
    "dsp_quadrature": 0x10A,
    "dsp_drive_gain": 0x10C,
}


#: The one-bit flags of ``dsp_status``, from bit 0 up; its other bits
#: read 0.
STATUS_FLAGS = ("pll_locked", "amplitude_settled", "running",
                "startup_failed", "closed_loop")

#: The registers a refresh writes, ``dsp_status`` first.
_MONITORS = ("dsp_status", "dsp_rate_out", "dsp_amplitude", "dsp_vco_control",
             "dsp_phase_error", "dsp_quadrature", "dsp_drive_gain")


def build_dsp_registers() -> RegisterFile:
    """Create the DSP monitoring/control register file."""
    regs = RegisterFile("dsp")
    regs.add(Register("dsp_status", DSP_REGISTER_MAP["dsp_status"], width=16,
                      access="ro",
                      fields=[BitField(name, bit, 1)
                              for bit, name in enumerate(STATUS_FLAGS)],
                      doc="Conditioning chain status flags"))
    regs.add(Register("dsp_rate_out", DSP_REGISTER_MAP["dsp_rate_out"], width=16,
                      access="ro", doc="Signed rate output word (Q1.14)"))
    regs.add(Register("dsp_amplitude", DSP_REGISTER_MAP["dsp_amplitude"], width=16,
                      access="ro", doc="Primary pick-off amplitude (Q1.14)"))
    regs.add(Register("dsp_vco_control", DSP_REGISTER_MAP["dsp_vco_control"],
                      width=16, access="ro",
                      doc="PLL frequency-control word, Hz offset * 16"))
    regs.add(Register("dsp_phase_error", DSP_REGISTER_MAP["dsp_phase_error"],
                      width=16, access="ro", doc="PLL phase error (Q1.14)"))
    regs.add(Register("dsp_quadrature", DSP_REGISTER_MAP["dsp_quadrature"],
                      width=16, access="ro", doc="Quadrature channel (Q1.14)"))
    regs.add(Register("dsp_drive_gain", DSP_REGISTER_MAP["dsp_drive_gain"],
                      width=16, access="ro", doc="AGC drive gain (Q1.14)"))
    return regs


def _word16(scaled: float) -> int:
    """Round and saturate into a signed 16-bit register word (two's
    complement)."""
    word = int(round(scaled))
    if word < -32768:
        word = -32768
    elif word > 32767:
        word = 32767
    return word & 0xFFFF


def _to_q114(value: float) -> int:
    """Encode a float into a signed Q1.14 register word (two's complement)."""
    return _word16(value * 16384.0)


def q114_to_float(word: int) -> float:
    """Decode a Q1.14 register word back to a float."""
    word &= 0xFFFF
    if word >= 0x8000:
        word -= 0x10000
    return word / 16384.0


@dataclass
class GyroConditionerConfig:
    """Configuration of the complete conditioning chain.

    Attributes:
        drive: drive loop configuration.
        sense: sense chain configuration.
        rebalance: force-rebalance configuration (used when closed_loop).
        startup: start-up sequencer configuration.
        closed_loop: enable the force-rebalance secondary loop.
        status_update_interval: samples between status-register refreshes.
        fixed_point: run the DSP IPs with 16-bit quantised outputs
            (prototype / RTL mode, used for the Fig. 6 reproduction).
    """

    drive: DriveLoopConfig = field(default_factory=DriveLoopConfig)
    sense: SenseChainConfig = field(default_factory=SenseChainConfig)
    rebalance: ForceRebalanceConfig = field(default_factory=ForceRebalanceConfig)
    startup: StartupConfig = field(default_factory=StartupConfig)
    closed_loop: bool = False
    status_update_interval: int = 64
    fixed_point: bool = False

    def __post_init__(self) -> None:
        if self.status_update_interval < 1:
            raise ConfigurationError("status update interval must be >= 1")


class GyroConditioner:
    """The customised digital conditioning chain for the gyro sensor."""

    def __init__(self, config: Optional[GyroConditionerConfig] = None):
        self.config = config or GyroConditionerConfig()
        cfg = self.config
        if cfg.fixed_point:
            fmt: Optional[QFormat] = DSP16
            cfg.drive.output_format = fmt
            cfg.sense.output_format = fmt
        self.drive_loop = DriveLoop(cfg.drive)
        self.sense_chain = SenseChain(cfg.sense)
        self.rebalance = ForceRebalanceController(cfg.rebalance)
        self.startup = StartupSequencer(cfg.startup)
        self.registers = build_dsp_registers()
        self._sample_count = 0
        self._control_word = 0.0

    # -- observables -----------------------------------------------------------

    @property
    def rate_dps(self) -> float:
        """Latest rate estimate in °/s (open or closed loop)."""
        if self.config.closed_loop:
            return self.sense_chain.scaler.to_dps(self.rebalance.command)
        return self.sense_chain.rate_dps

    @property
    def rate_word(self) -> float:
        """Latest normalised rate-output word."""
        if self.config.closed_loop:
            return self.sense_chain.scaler.to_output_word(self.rate_dps)
        return self.sense_chain.rate_word

    @property
    def running(self) -> bool:
        """True once start-up has completed."""
        return self.startup.running

    def reset(self) -> None:
        """Return the whole chain to the power-on state."""
        self.drive_loop.reset()
        self.sense_chain.reset()
        self.rebalance.reset()
        self.startup.reset()
        self.registers.reset()
        self._sample_count = 0
        self._control_word = 0.0

    # -- operation --------------------------------------------------------------

    def step(self, primary_pickoff_norm: float, secondary_pickoff_norm: float,
             temperature_c: float = 25.0) -> Tuple[float, float, float]:
        """Process one pair of acquisition samples.

        Args:
            primary_pickoff_norm: normalised primary-channel ADC sample.
            secondary_pickoff_norm: normalised secondary-channel ADC sample.
            temperature_c: measured die temperature for compensation.

        Returns:
            ``(drive_word, control_word, rate_word)`` — the normalised
            words for the drive DAC, control DAC and rate-output DAC.
        """
        cfg = self.config
        drive_word = self.drive_loop.step(primary_pickoff_norm)
        ref_sin, ref_cos = self.drive_loop.references
        self.sense_chain.step(secondary_pickoff_norm, ref_sin, ref_cos,
                              temperature_c)
        if cfg.closed_loop:
            self._control_word = self.rebalance.step(secondary_pickoff_norm, ref_cos)
        else:
            self._control_word = 0.0
        self.startup.step(self.drive_loop.locked, self.drive_loop.amplitude_settled)

        self._sample_count += 1
        if self._sample_count % cfg.status_update_interval == 0:
            self._refresh_registers()
        return drive_word, self._control_word, self.rate_word

    def _refresh_registers(self) -> None:
        """Publish the monitored values into the DSP registers.

        Hardware writes fire no hooks, so the status flags go in as one
        word (:data:`STATUS_FLAGS` order) and each register is looked up
        once.
        """
        drive_loop = self.drive_loop
        (status, rate_out, amplitude, vco_control, phase_error, quadrature,
         drive_gain) = map(self.registers.register, _MONITORS)
        flags = (drive_loop.locked, drive_loop.amplitude_settled,
                 self.startup.running, self.startup.failed,
                 self.config.closed_loop)
        status.hw_write(sum(1 << bit for bit, flag in enumerate(flags)
                            if flag))
        rate_out.hw_write(_to_q114(self.rate_word))
        amplitude.hw_write(_to_q114(drive_loop.pll.amplitude_estimate))
        vco_control.hw_write(_word16(drive_loop.vco_control * 16.0))
        phase_error.hw_write(_to_q114(drive_loop.phase_error))
        quadrature.hw_write(_to_q114(self.sense_chain.quadrature_channel))
        drive_gain.hw_write(_to_q114(drive_loop.amplitude_control))
