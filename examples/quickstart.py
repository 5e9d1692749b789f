"""Quickstart: bring up the gyro conditioning platform and read a yaw rate.

Runs the full mixed-signal co-simulation — MEMS vibrating-ring sensor,
analog front-end and digital conditioning chain — from power-on, then
applies yaw rates and prints the chain's digital and analog outputs.
The rate readings run as one declarative scenario *campaign*: three
settled-output scenarios branching from the calibrated platform, run as
one fleet.

Run with:  python examples/quickstart.py
"""

from repro.platform import GyroPlatform
from repro.scenarios import Campaign, rate_table_scenarios
from repro.sensors import Environment


def main() -> None:
    platform = GyroPlatform()

    print("Starting the platform (drive-loop lock + amplitude regulation)...")
    start = platform.start()
    print(f"  PLL locked after        : {start.lock_time_s() * 1000:.1f} ms")
    print(f"  turn-on time            : {start.turn_on_time_s * 1000:.1f} ms")
    print(f"  drive frequency         : "
          f"{platform.conditioner.drive_loop.pll.frequency_hz:.1f} Hz")

    print("\nFactory calibration on the simulated rate table "
          "(one 3-lane fleet)...")
    platform.calibrate(settle_s=0.2)

    rates = (0.0, 100.0, -200.0)
    campaign = Campaign(rate_table_scenarios(rates, settle_s=0.2),
                        name="quickstart-readings")
    for rate, lane in zip(rates, campaign.run(platform).lanes):
        metrics = lane.outcomes[0].metrics
        print(f"  applied {rate:+7.1f} deg/s -> measured "
              f"{metrics['rate_output_dps']:+8.2f} deg/s, "
              f"analog output {metrics['rate_output_v']:.3f} V")

    import copy
    twin = copy.deepcopy(platform)
    result = platform.run(Environment.sinusoidal_rate(50.0, 10.0), 0.3)
    print(f"\n10 Hz, ±50 deg/s swing -> output peak-to-peak "
          f"{result.rate_output_dps.max() - result.rate_output_dps.min():.1f} deg/s")

    # that run used the default compiled engine: a kernel generated for
    # this platform's structure, lowered to C when a compiler is found
    # (built once per host into ~/.cache/repro/kernels) and run as
    # generated Python otherwise; the reference loop replays it bit for
    # bit, only many times slower
    from repro.engine import backend_info
    replay = twin.run(Environment.sinusoidal_rate(50.0, 10.0), 0.3,
                      engine="reference")
    same = (replay.rate_output_dps == result.rate_output_dps).all()
    print(f"compiled engine ({backend_info()['backend']} backend) matches "
          f"the reference loop bit for bit: {same}")


if __name__ == "__main__":
    main()
