"""Platform-based design flow: partitioning, DSE and implementation estimates.

Walks the Fig. 1 flow the way a designer deriving a new sensor interface
would: partition the system functions across analog / hardwired digital
/ software, sweep the programmable parameters to find the Pareto front,
and roll the chosen configuration up to FPGA-prototype and ASIC
estimates (the paper's 200 kgates / 12 mm² figures).

Run with:  python examples/design_space_exploration.py
"""

import numpy as np

from repro.flow import (
    build_gyro_design_flow,
    estimate_asic,
    estimate_fpga_prototype,
    explore,
    gyro_system_functions,
    pareto_front,
    partition,
    recommend,
    sweep,
)
from repro.platform import (
    Domain,
    GenericSensorPlatform,
    GyroPlatform,
    GyroPlatformConfig,
)
from repro.scenarios import Campaign, Scenario
from repro.sensors import Environment


def main() -> None:
    print("=== Analog / digital / software partitioning ===")
    result = partition(gyro_system_functions())
    for domain in (Domain.ANALOG, Domain.DIGITAL_HW, Domain.SOFTWARE):
        names = ", ".join(result.functions_in_domain(domain))
        print(f"  {domain.value:<12s}: {names}")
    print(f"  roll-up: {result.analog_area_mm2:.1f} mm2 analog, "
          f"{result.digital_gates} gates, {result.code_bytes} bytes of firmware")

    print("\n=== Design-space exploration (analytic models) ===")
    front = pareto_front(explore())
    for point in front:
        print("  ", point.summary())
    recommended = recommend()
    print("  recommended:", recommended.summary())

    print("\n=== Full simulation-backed DSE sweep (scenario campaigns) ===")
    # The analytic models score hundreds of points in milliseconds;
    # sweep() then validates the whole Pareto front with the true
    # mixed-signal loop — three rate-table scenarios per point, every
    # point in one campaign whatever its structure.  This is where the models
    # get honest: a datapath the noise model likes can still quantise
    # the rate channel to nothing (the Q1.14 order-4 output filter
    # does exactly that, and the sweep reports it).
    for simulated in sweep(max_points=10):
        print("  ", simulated.summary())

    print("\n=== Monte-Carlo fleet: part-to-part turn-on spread ===")
    # campaigns also carry Monte Carlo mismatch runs: each lane is a
    # different simulated physical device of the same design, drawn by
    # GyroPlatformConfig.with_part_variation from one seeded generator
    rng = np.random.default_rng(2026)
    devices = [GyroPlatform(GyroPlatformConfig().with_part_variation(rng))
               for _ in range(4)]
    power_on = Scenario("power-on", Environment.still(), 0.8, reset=True)
    fleet = Campaign([power_on] * len(devices), name="monte-carlo-turn-on")
    turn_ons = [lane.outcomes[0].result.turn_on_time_s
                for lane in fleet.run(platforms=devices)]
    for lane, t in enumerate(turn_ons):
        label = f"{t * 1000:.1f} ms" if t is not None else "did not start"
        print(f"  device {lane}: turn-on {label}")

    print("\n=== Platform customisation and implementation estimates ===")
    platform_def = GenericSensorPlatform()
    instance = platform_def.derive("gyro")
    print(platform_def.architecture_report(instance))
    print()
    print("FPGA prototype :", estimate_fpga_prototype(instance, clock_mhz=20.0).summary())
    print("ASIC estimate  :", estimate_asic(instance).summary())

    print("\n=== Executing the Fig. 1 design flow ===")
    flow = build_gyro_design_flow({
        "partitioning": lambda ctx: {"digital_gates": result.digital_gates},
        "prototyping": lambda ctx: {
            "fpga_gates": estimate_fpga_prototype(instance).design_gates},
    })
    flow.execute()
    print(flow.report())


if __name__ == "__main__":
    main()
