"""Monte Carlo yield estimation over part-to-part sensor mismatch.

Builds a fleet of simulated devices of the same design — each with its
own pick-off gain, resonance split, offset and noise seeds, drawn the
way a wafer spreads them — calibrates every part on the simulated rate
table and checks it against simple datasheet limits.  The fraction of
parts that pass is the predicted production yield.

Every part is one campaign lane (start-up + rate-table scenarios), so
the whole population runs through ``Campaign.run`` and fans out over
worker processes with the sharded executor: pass ``--workers N`` to use
N processes, and point ``--manifest-dir`` at a directory to make the run
resumable — killing it and re-running with the same directory simulates
only the parts that have not finished.  The per-part metrics are
bit-identical to an in-process run.

Run with:  python examples/monte_carlo_yield.py [--parts 8] [--workers 2]
           [--manifest-dir runs/yield]
"""

import argparse
import dataclasses

import numpy as np

from repro.platform import GyroPlatform, GyroPlatformConfig
from repro.scenarios import Campaign, rate_table_scenarios, startup_scenario

RATES_DPS = (-200.0, -100.0, 0.0, 100.0, 200.0)

# screening limits for *uncalibrated* parts: the raw offset and the
# sensitivity spread must stay inside what factory calibration can trim,
# and the part has to start within the watchdog budget
MAX_OFFSET_DPS = 25.0
MAX_SENSITIVITY_SPREAD = 0.35     # +/-35 % from the batch median
MAX_TURN_ON_S = 0.8


def part_configs(n: int, seed: int) -> list:
    """Draw ``n`` device configurations with part-to-part mismatch."""
    rng = np.random.default_rng(seed)
    nominal = GyroPlatformConfig()
    return [nominal.with_part_variation(rng) for _ in range(n)]


def part_program(settle_s: float) -> list:
    """One part's lane program: power up, then sweep the rate table.

    A part that never leaves start-up is a legitimate yield loss, not a
    simulation error, so the start-up scenario's watchdog is relaxed:
    the lane keeps going and the part fails the turn-on check instead.
    """
    startup = dataclasses.replace(startup_scenario(), require_stop=False)
    return [startup] + list(rate_table_scenarios(RATES_DPS,
                                                 settle_s=settle_s))


def measure_part(lane) -> dict:
    """Rate-table measurements of one part's campaign lane.

    The parts are uncalibrated (that is what the rate table is for), so
    the response is fitted on the raw sense channel, exactly like the
    factory calibration fit.
    """
    startup = lane.outcomes[0]
    sweep = lane.outcomes[1:]
    rates = np.asarray(RATES_DPS)
    channels = np.array([o.metrics["raw_channel"] for o in sweep])
    slope, intercept = np.polyfit(rates, channels, 1)
    return {
        "turn_on_s": startup.metrics["turn_on_time_s"],
        "slope": slope,                 # channel units per deg/s
        "offset_dps": intercept / slope if slope != 0.0 else float("inf"),
    }


def judge_part(measured: dict, median_slope: float) -> bool:
    """Datasheet pass/fail for one measured part."""
    turn_on = measured["turn_on_s"]
    spread = (abs(measured["slope"] / median_slope - 1.0)
              if median_slope != 0.0 else float("inf"))
    return (turn_on is not None and turn_on <= MAX_TURN_ON_S
            and abs(measured["offset_dps"]) <= MAX_OFFSET_DPS
            and spread <= MAX_SENSITIVITY_SPREAD)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--parts", type=int, default=8,
                        help="population size (default 8)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: all cores when "
                             "--executor sharded, else in-process)")
    parser.add_argument("--executor", default=None,
                        choices=("local", "sharded"),
                        help="campaign executor (default: sharded when "
                             "--workers is given)")
    parser.add_argument("--manifest-dir", default=None,
                        help="manifest directory for resumable sharded "
                             "runs; reuse it to resume a killed run")
    parser.add_argument("--settle", type=float, default=0.15,
                        help="settle time per rate point in seconds")
    parser.add_argument("--seed", type=int, default=1234)
    args = parser.parse_args()

    print(f"Drawing {args.parts} parts with process spread...")
    configs = part_configs(args.parts, args.seed)
    platforms = [GyroPlatform(cfg) for cfg in configs]
    campaign = Campaign([part_program(args.settle)
                         for _ in range(args.parts)],
                        name="monte-carlo-yield")

    mode = args.executor or ("sharded" if args.workers else "local")
    print(f"Running {args.parts} lane programs on the {mode!r} executor...")
    result = campaign.run(platforms=platforms, executor=args.executor,
                          workers=args.workers,
                          manifest_dir=args.manifest_dir)

    measured = [measure_part(lane) for lane in result.lanes]
    median_slope = float(np.median([m["slope"] for m in measured]))
    passed = 0
    for index, m in enumerate(measured):
        ok = judge_part(m, median_slope)
        passed += ok
        turn_on = m["turn_on_s"]
        turn_on_ms = "   n/a" if turn_on is None else f"{1000 * turn_on:6.1f}"
        print(f"  part {index:3d}: turn-on {turn_on_ms} ms, "
              f"offset {m['offset_dps']:+7.3f} deg/s, "
              f"sensitivity {m['slope'] / median_slope:6.3f} x median  "
              f"-> {'PASS' if ok else 'FAIL'}")
    print(f"\nYield: {passed}/{args.parts} "
          f"({100.0 * passed / args.parts:.1f} %)")


if __name__ == "__main__":
    main()
