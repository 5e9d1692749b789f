"""HW/SW integration: 8051 monitoring firmware polling the DSP chain.

Brings the conditioning chain to lock, connects the 8051 subsystem to
the DSP status registers and the analog trim bank (bridge + JTAG), runs
the monitoring firmware on the instruction-set simulator and decodes the
rate frames it streams over the UART — the same monitoring/communication
role the paper assigns to the Oregano 8051 core.

Run with:  python examples/firmware_monitoring.py
"""

from repro.gyro import q114_to_float
from repro.mcu import FRAME_HEADER_LOCKED, McuSubsystem
from repro.platform import GyroPlatform


def main() -> None:
    print("Starting the conditioning chain...")
    platform = GyroPlatform()
    platform.start()
    registers = platform.conditioner.registers
    print(f"  dsp_status   = 0x{registers.read('dsp_status'):04X}")
    print(f"  dsp_rate_out = 0x{registers.read('dsp_rate_out'):04X}")

    print("\nConnecting the 8051 subsystem (bridge + JTAG)...")
    mcu = McuSubsystem()
    mcu.connect_dsp_registers(registers)
    mcu.connect_trim_bank(platform.frontend.trim)
    print(f"  JTAG IDCODE         = 0x{mcu.jtag.read_idcode():08X}")
    print(f"  ADC resolution trim = {mcu.jtag.read_trim_register(0x04)} bits "
          "(read back over the JTAG chain)")

    print("\nRunning the monitoring firmware on the instruction-set simulator...")
    mcu.load_monitor_firmware()
    executed = mcu.run()
    frames = mcu.uart.transmitted_bytes()
    print(f"  executed {executed} instructions, UART stream: {frames.hex(' ')}")

    index = 0
    while index < len(frames):
        if frames[index] == FRAME_HEADER_LOCKED and index + 3 < len(frames):
            raw = frames[index + 1] | (frames[index + 2] << 8)
            word = q114_to_float(raw)
            gain = frames[index + 3] / 64.0
            rate = word * platform.conditioner.sense_chain.scaler.config.full_scale_dps
            print(f"  frame: PLL locked, rate word {word:+.4f} "
                  f"(≈ {rate:+.1f} deg/s), drive gain ≈ {gain:.2f}")
            index += 4
        else:
            print(f"  frame: status byte 0x{frames[index]:02X} (PLL not locked)")
            index += 1


if __name__ == "__main__":
    main()
