"""Section 4 case study: characterise the gyro platform like a datasheet.

Reproduces a compact version of the paper's Table 1 on the simulated
platform: sensitivity, nonlinearity, null voltage, turn-on time, noise
density and bandwidth, and compares the result with the published
SensorDynamics, ADXRS300 and Gyrostar numbers.

The characterisation harness and the baseline models replay the same
scenario-campaign definitions (``repro.scenarios.library``): the rate
table sweep runs as one fleet on the platform and the identical
stimulus plan drives the behavioural baseline devices.

Run with:  python examples/gyro_case_study.py
(The full characterisation takes a couple of minutes of wall time.)
"""

from repro.eval import (
    BaselineGyroDevice,
    CharacterizationConfig,
    GyroCharacterization,
    adxrs300_spec,
    characterize_baseline,
    compare_devices,
    murata_gyrostar_spec,
    paper_shape_checks,
    paper_table1_sensordynamics,
)
from repro.platform import GyroPlatform


def main() -> None:
    print("Calibrating the platform on the simulated rate table...")
    platform = GyroPlatform()
    platform.calibrate(settle_s=0.2)

    config = CharacterizationConfig(
        rate_points_dps=(-300.0, -150.0, 0.0, 150.0, 300.0),
        settle_s=0.15,
        noise_duration_s=1.2)
    harness = GyroCharacterization(platform, config)
    measured = harness.characterize(include_noise=True,
                                    include_temperature=False,
                                    bandwidth_method="analytic")

    print("\nPaper Table 1 (published):")
    print(paper_table1_sensordynamics().format_table())
    print("\nMeasured on this reproduction:")
    print(measured.to_datasheet().format_table())

    print("\nComparing against the commercial baselines...")
    adxrs = characterize_baseline(BaselineGyroDevice(adxrs300_spec()),
                                  noise_duration_s=4.0)
    murata = characterize_baseline(BaselineGyroDevice(murata_gyrostar_spec()),
                                   noise_duration_s=4.0)
    report = compare_devices([measured, adxrs, murata])
    print(report.format_table())
    print("\nPaper's qualitative claims:")
    for name, ok in paper_shape_checks(report).items():
        print(f"  {name:<32s}: {'reproduced' if ok else 'NOT reproduced'}")


if __name__ == "__main__":
    main()
