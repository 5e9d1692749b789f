"""Engine performance report: reference vs. compiled vs. batched.

Times the co-simulation paths on the same fixed workload — the Fig. 5
drive-loop locking scenario (sensor at rest from power-on) — plus the
scenario-campaign orchestrator on a rate-table sweep, both in-process
and through the sharded multi-process executor, and writes
``BENCH_engine.json`` at the repository root so the perf trajectory can
be tracked across PRs.

Schema: a list of ``{path, samples_per_sec, speedup_vs_reference}``
records under ``"entries"``.  ``samples_per_sec`` is simulated
samples per wall-clock second; for the batched and campaign paths all
fleet lanes count, so their speedup is the *per-scenario* throughput
gain at ``B`` lanes.  ``compiled_backend`` records whether the compiled
rows ran the numba JIT or the generated-Python fallback; the compiled
engine's kernel generation/JIT warm-up is excluded from its timings (a
throwaway run compiles and caches the kernel before the clock starts).

Run with:  PYTHONPATH=src python benchmarks/perf_report.py [--quick]
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.engine import FleetSimulator, backend_info      # noqa: E402
from repro.engine import run_compiled_fleet                # noqa: E402
from repro.platform import GyroPlatform, GyroPlatformConfig  # noqa: E402
from repro.scenarios import Campaign, rate_table_scenarios  # noqa: E402
from repro.sensors import Environment                      # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
REPORT_PATH = os.path.join(REPO_ROOT, "BENCH_engine.json")

DURATION_S = 0.5   # the fixed locking scenario
BATCH_LANES = 32


REPEATS = 2  # best-of-N to damp scheduler noise


def _time_engine(engine: str, duration_s: float) -> float:
    if engine == "compiled":
        # compile and cache the kernel outside the timed region: the
        # report tracks steady-state throughput, not one-off JIT cost
        GyroPlatform(GyroPlatformConfig()).run(Environment.still(), 0.01,
                                               engine="compiled")
    best = float("inf")
    for _ in range(REPEATS):
        platform = GyroPlatform(GyroPlatformConfig())
        start = time.perf_counter()
        platform.run(Environment.still(), duration_s, reset=True,
                     engine=engine)
        best = min(best, time.perf_counter() - start)
    return best


def _time_compiled_fleet(lanes: int, duration_s: float) -> float:
    """Time ``run_compiled_fleet`` over ``lanes`` homogeneous lanes
    (kernel already warm from the scalar compiled row)."""
    best = float("inf")
    for _ in range(REPEATS):
        fleet = [GyroPlatform(GyroPlatformConfig()) for _ in range(lanes)]
        start = time.perf_counter()
        run_compiled_fleet(fleet, Environment.still(), duration_s)
        best = min(best, time.perf_counter() - start)
    return best


def _time_batch(lanes: int, duration_s: float) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        fleet = FleetSimulator.from_config(GyroPlatformConfig(), lanes)
        start = time.perf_counter()
        fleet.run(Environment.still(), duration_s, reset=True)
        best = min(best, time.perf_counter() - start)
    return best


def _time_campaign(lanes: int, duration_s: float) -> float:
    """Time a rate-table campaign: B settled-output scenarios, one fleet.

    The platform start-up is not timed — the campaign layer is what is
    being measured: scenario branching, fleet packing and metric
    extraction on top of the batched engine.
    """
    rates = [(-200.0 + 400.0 * i / max(lanes - 1, 1)) for i in range(lanes)]
    best = float("inf")
    for _ in range(REPEATS):
        platform = GyroPlatform(GyroPlatformConfig())
        platform.start()
        campaign = Campaign(rate_table_scenarios(rates, settle_s=duration_s),
                            name="bench-rate-table")
        start = time.perf_counter()
        campaign.run(platform, engine="batched")
        best = min(best, time.perf_counter() - start)
    return best


def _time_sharded(lanes: int, duration_s: float, workers: int) -> float:
    """Time the same rate-table campaign through the sharded executor.

    Includes everything sharding adds on top of the campaign row:
    pickling lane programs and the base platform to the workers, worker
    start-up, manifest bookkeeping and result-file round-trips.  Each
    repeat gets a fresh manifest directory so nothing is resumed.
    """
    import shutil
    import tempfile

    rates = [(-200.0 + 400.0 * i / max(lanes - 1, 1)) for i in range(lanes)]
    best = float("inf")
    for _ in range(REPEATS):
        platform = GyroPlatform(GyroPlatformConfig())
        platform.start()
        campaign = Campaign(rate_table_scenarios(rates, settle_s=duration_s),
                            name="bench-rate-table")
        manifest_dir = tempfile.mkdtemp(prefix="bench-sharded-")
        try:
            start = time.perf_counter()
            campaign.run(platform, engine="batched", executor="sharded",
                         workers=workers, manifest_dir=manifest_dir)
            best = min(best, time.perf_counter() - start)
        finally:
            shutil.rmtree(manifest_dir, ignore_errors=True)
    return best


def build_report(duration_s: float = DURATION_S,
                 lanes: int = BATCH_LANES,
                 workers: int = None) -> dict:
    """Time the engines and the campaign layer; return the report dict."""
    fs = GyroPlatformConfig().sample_rate_hz
    n = int(round(duration_s * fs))
    workers = workers or min(2, os.cpu_count() or 1)

    t_ref = _time_engine("reference", duration_s)
    t_compiled = _time_engine("compiled", duration_s)
    t_batch = _time_batch(lanes, duration_s)
    t_compiled_fleet = _time_compiled_fleet(lanes, duration_s)
    t_campaign = _time_campaign(lanes, duration_s)
    t_sharded = _time_sharded(lanes, duration_s, workers)

    sps_ref = n / t_ref
    entries = []
    for path, sps in (("reference", sps_ref),
                      ("compiled", n / t_compiled),
                      (f"batched[B={lanes}]", n * lanes / t_batch),
                      (f"compiled-batched[B={lanes}]",
                       n * lanes / t_compiled_fleet),
                      (f"campaign[rate-table B={lanes}]",
                       n * lanes / t_campaign),
                      (f"sharded[{workers} workers, rate-table B={lanes}]",
                       n * lanes / t_sharded)):
        entries.append({
            "path": path,
            "samples_per_sec": round(sps, 1),
            "speedup_vs_reference": round(sps / sps_ref, 2),
        })
    return {
        "scenario": ("fig5 locking run: sensor at rest from power-on, "
                     f"{duration_s} s @ {fs:.0f} Hz; campaign/sharded "
                     f"entries: {lanes}-point rate-table sweep of the same "
                     "length"),
        "samples": n,
        "batch_lanes": lanes,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "compiled_backend": backend_info(),
        "entries": entries,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="shorter run (0.1 s, 8 lanes) for smoke tests; "
                             "printed only, not written to the tracked report")
    parser.add_argument("--output", default=None,
                        help=f"report path (default {REPORT_PATH}; quick "
                             "runs are not written unless a path is given)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for the sharded entry "
                             "(default: min(2, cpu count))")
    args = parser.parse_args()

    duration = 0.1 if args.quick else DURATION_S
    lanes = 8 if args.quick else BATCH_LANES
    report = build_report(duration, lanes, args.workers)
    # a --quick run measures a different scenario: never let it silently
    # overwrite the tracked perf-trajectory file
    output = args.output or (None if args.quick else REPORT_PATH)
    if output is not None:
        with open(output, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {output}")
    else:
        print("quick run (not written; pass --output to save)")
    for entry in report["entries"]:
        print(f"  {entry['path']:<40s} {entry['samples_per_sec']:>12,.0f} "
              f"samples/s   {entry['speedup_vs_reference']:>6.2f}x")


if __name__ == "__main__":
    main()
