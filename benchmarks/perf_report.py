"""Engine performance report: reference vs. compiled, and the fleet layouts.

Times the co-simulation paths on the same fixed workload — the Fig. 5
drive-loop locking scenario (sensor at rest from power-on) — plus the
scenario-campaign orchestrator on a rate-table sweep, both in-process
and through the sharded multi-process executor, on the default engine
with each lane-kernel backend (C and generated Python), and writes
``BENCH_engine.json`` at the repository root so the perf trajectory
can be tracked across PRs.

Schema: a list of ``{path, samples_per_sec, speedup_vs_reference}``
records under ``"entries"``; the compiled, campaign and sharded paths
carry their backend in brackets.  ``samples_per_sec`` is simulated
samples per wall-clock second; for the campaign paths all fleet lanes
count, so their speedup is the *per-scenario* throughput gain at ``B``
lanes.  ``"crossover"`` times one fleet of ``B`` 0.05 s rate-table lanes
(branched from a started platform) forced onto each fleet layout —
lockstep, and lane by lane on each backend — at several ``B``: the
table behind ``repro.engine.compiled.LOCKSTEP_CROSSOVER``, which
``"lockstep_crossover"`` records (``null`` when it is infinite, that
is when every fleet runs lane by lane).  ``"build"``
times the C backend's on-disk kernel cache in a temporary cache
directory, per kernel plan: the cold build (lowering, compiling and the
self-check) and the warm load from the cache in the same process.
``"store"`` times the result store on one campaign of ``STORE_LANES``
0.05 s settled-output lanes branched from a started platform: the mean
entry size, the put time per lane into a fresh store (cold), the hit
time per lane reading every entry back (warm), the lane-key cost
(``LaneSource.lane_digests`` on the started platform) and the size of
that platform's pickle, the snapshot every lane key and branch hashes
or loads.  ``"branch"`` times
``LaneSource.materialize`` branching ``BRANCH_LANES`` campaign lanes
from a started platform, per lane.  ``"host"`` records the CPU model
and the Python and NumPy versions the report ran on.  ``compiled_backend``
records the default backend and the compiler; kernel generation and
builds are excluded from every timing but ``"build"`` (a throwaway run
compiles and caches the kernels before the clock starts).

Run with:  python benchmarks/perf_report.py [--quick]
"""

import argparse
import contextlib
import copy
import json
import math
import os
import pickle
import platform as host
import shutil
import sys
import tempfile
import time

import numpy

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.engine import FleetSimulator, backend_info      # noqa: E402
from repro.engine import compiled                          # noqa: E402
from repro.engine.compiled import kernel_plan              # noqa: E402
from repro.platform import GyroPlatform, GyroPlatformConfig  # noqa: E402
from repro.scenarios import Campaign, rate_table_scenarios  # noqa: E402
from repro.scenarios.executor import LaneSource            # noqa: E402
from repro.sensors import Environment                      # noqa: E402
from repro.store import ResultStore                        # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
REPORT_PATH = os.path.join(REPO_ROOT, "BENCH_engine.json")

DURATION_S = 0.5   # the fixed locking scenario
BATCH_LANES = 32
CROSSOVER_LANES = (8, 16, 24, 32, 48)
CROSSOVER_S = 0.05   # rate-table lane length
STORE_LANES = 16
STORE_S = 0.05       # settled-output lane length
BRANCH_LANES = 32


REPEATS = 2  # best-of-N to damp scheduler noise

#: Lane-kernel backends this host can run, default first.
BACKENDS = ("c", "python") if compiled.COMPILER else ("python",)


@contextlib.contextmanager
def _backend(name: str):
    """Run the compiled engine's lane kernels on one backend."""
    saved = compiled.BACKEND
    compiled.BACKEND = name
    try:
        yield
    finally:
        compiled.BACKEND = saved


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


def _time_layouts(platform, lanes: int, duration_s: float) -> dict:
    """Time one ``lanes``-lane rate-table fleet on each fleet layout.

    Each lane is a copy of the started ``platform`` held at its own
    constant rate; returns the best wall time of the lockstep layout
    and of the lane layout on each backend (``"lane[c]"``, ...).
    """
    envs = [Environment.constant_rate(-200.0 + 400.0 * i / max(lanes - 1, 1))
            for i in range(lanes)]
    saved = compiled.LOCKSTEP_CROSSOVER
    times = {}
    layouts = [("lockstep", 1, BACKENDS[0])] + [
        (f"lane[{backend}]", math.inf, backend) for backend in BACKENDS]
    try:
        for layout, crossover, backend in layouts:
            compiled.LOCKSTEP_CROSSOVER = crossover
            with _backend(backend):
                FleetSimulator([copy.deepcopy(platform)]).run(envs[0], 0.001)
                best = float("inf")
                for _ in range(REPEATS):
                    fleet = FleetSimulator([copy.deepcopy(platform)
                                            for _ in range(lanes)])
                    start = time.perf_counter()
                    fleet.run(envs, duration_s)
                    best = min(best, time.perf_counter() - start)
            times[layout] = best
    finally:
        compiled.LOCKSTEP_CROSSOVER = saved
    return times


def _time_campaign(lanes: int, duration_s: float) -> float:
    """Time a rate-table campaign: B settled-output scenarios, one fleet.

    The platform start-up is not timed — the campaign layer is what is
    being measured: scenario branching, fleet packing and metric
    extraction on top of the default engine's fleet layout choice.
    """
    rates = [(-200.0 + 400.0 * i / max(lanes - 1, 1)) for i in range(lanes)]
    best = float("inf")
    for _ in range(REPEATS):
        platform = GyroPlatform(GyroPlatformConfig())
        platform.start()
        campaign = Campaign(rate_table_scenarios(rates, settle_s=duration_s),
                            name="bench-rate-table")
        start = time.perf_counter()
        campaign.run(platform)
        best = min(best, time.perf_counter() - start)
    return best


def _time_sharded(lanes: int, duration_s: float, workers: int) -> float:
    """Time the same rate-table campaign through the sharded executor.

    Includes everything sharding adds on top of the campaign row:
    pickling lane programs and the base platform to the workers, worker
    start-up, manifest bookkeeping and result-file round-trips.  Each
    repeat gets a fresh manifest directory so nothing is resumed.
    """
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
            campaign.run(platform, executor="sharded", workers=workers,
                         manifest_dir=manifest_dir)
            best = min(best, time.perf_counter() - start)
        finally:
            shutil.rmtree(manifest_dir, ignore_errors=True)
    return best


def _time_store(platform, lanes: int, settle_s: float) -> dict:
    """Time store puts (cold), hits (warm) and lane keys.

    One ``lanes``-lane rate-table campaign branched from the started
    ``platform`` fills a store; its entries are then put again into a
    fresh store and read back, so only store work is timed.  Returns
    the mean entry size, the best per-lane put and hit times, the best
    time of one ``lane_digests`` call and the platform's pickle size.
    """
    rates = [(-200.0 + 400.0 * i / max(lanes - 1, 1)) for i in range(lanes)]
    campaign = Campaign(rate_table_scenarios(rates, settle_s=settle_s),
                        name="bench-store")
    root = tempfile.mkdtemp(prefix="bench-store-")
    try:
        seed = ResultStore(os.path.join(root, "seed"))
        campaign.run(platform, store=seed)
        entries = [seed.load_entry(key) for key in seed.keys()]
        outcomes = [e.lane_outcome() for e in entries]
        put_s = get_s = float("inf")
        for rep in range(REPEATS):
            store = ResultStore(os.path.join(root, f"cold-{rep}"))
            start = time.perf_counter()
            paths = [store.put(e.key, lane, config_blob=e.config,
                               campaign=e.campaign, engine=e.engine,
                               executor=e.executor,
                               source_digest=e.source_digest)
                     for e, lane in zip(entries, outcomes)]
            put_s = min(put_s, time.perf_counter() - start)
            start = time.perf_counter()
            hits = [store.get(e.key) for e in entries]
            get_s = min(get_s, time.perf_counter() - start)
            assert None not in hits
        kib = sum(os.path.getsize(path) for path in paths) / len(paths) / 1024
    finally:
        shutil.rmtree(root, ignore_errors=True)
    source = LaneSource.resolve(platform, None, None, False, lanes)
    key_s = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        source.lane_digests(lanes)
        key_s = min(key_s, time.perf_counter() - start)
    snapshot = pickle.dumps(platform, protocol=pickle.HIGHEST_PROTOCOL)
    return {"lanes": lanes,
            "entry_kib": round(kib, 1),
            "put_ms_per_lane": round(put_s / lanes * 1e3, 3),
            "hit_ms_per_lane": round(get_s / lanes * 1e3, 3),
            "key_ms": round(key_s * 1e3, 3),
            "snapshot_kib": round(len(snapshot) / 1024, 1)}


def _time_branch(platform, lanes: int) -> dict:
    """Time branching ``lanes`` campaign lanes from ``platform``.

    One ``LaneSource.materialize`` call builds every lane of a
    ``lanes``-lane campaign on the started ``platform``; returns the
    best time per lane.
    """
    source = LaneSource.resolve(platform, None, None, False, lanes)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        source.materialize(range(lanes))
        best = min(best, time.perf_counter() - start)
    return {"lanes": lanes, "ms_per_lane": round(best / lanes * 1e3, 3)}


def _time_build() -> list:
    """Cold build and warm load of lane kernels, in a temporary cache.

    Per kernel plan (default, fixed point, closed loop): the seconds a
    first request takes on an empty cache (lowering, compiling and the
    self-check) and the best milliseconds a later request takes once the
    in-process kernel table is cleared (source generation, lowering,
    hashing and loading the cached library, which is already mapped
    into this process).
    """
    configs = {"default": GyroPlatformConfig()}
    for mode in ("fixed_point", "closed_loop"):
        configs[mode] = GyroPlatformConfig()
        setattr(configs[mode].conditioner, mode, True)
    saved_env = os.environ.get("XDG_CACHE_HOME")
    saved_kernels = compiled._KERNELS
    root = tempfile.mkdtemp(prefix="bench-kernels-")
    rows = []
    try:
        os.environ["XDG_CACHE_HOME"] = root
        for name, cfg in configs.items():
            platform = GyroPlatform(cfg)
            plan = kernel_plan(platform)
            seconds = []
            for _ in range(1 + REPEATS):
                compiled._KERNELS = {}
                start = time.perf_counter()
                kernel = compiled._compile_kernel(
                    plan, "c", platform=platform,
                    environment=Environment.still())
                seconds.append(time.perf_counter() - start)
                assert hasattr(kernel, "library"), "no C kernel was built"
            rows.append({"plan": name,
                         "cold_build_s": round(seconds[0], 3),
                         "warm_load_ms": round(min(seconds[1:]) * 1e3, 2)})
    finally:
        if saved_env is None:
            os.environ.pop("XDG_CACHE_HOME", None)
        else:
            os.environ["XDG_CACHE_HOME"] = saved_env
        compiled._KERNELS = saved_kernels
        shutil.rmtree(root, ignore_errors=True)
    return rows


def _host() -> dict:
    """CPU model and the Python and NumPy versions of this host."""
    cpu = host.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "python": host.python_version(),
            "numpy": numpy.__version__}


def build_report(duration_s: float = DURATION_S,
                 lanes: int = BATCH_LANES,
                 workers: int = None,
                 crossover_lanes=CROSSOVER_LANES,
                 crossover_s: float = CROSSOVER_S) -> dict:
    """Time the engines and the campaign layer; return the report dict."""
    fs = GyroPlatformConfig().sample_rate_hz
    n = int(round(duration_s * fs))
    workers = workers or min(2, os.cpu_count() or 1)

    t_ref = _time_engine("reference", duration_s)
    sps_ref = n / t_ref
    rows = [("reference", sps_ref)]
    for backend in BACKENDS:
        with _backend(backend):
            rows += [
                (f"compiled[{backend}]",
                 n / _time_engine("compiled", duration_s)),
                (f"campaign[{backend}, rate-table B={lanes}]",
                 n * lanes / _time_campaign(lanes, duration_s)),
                (f"sharded[{backend}, {workers} workers, rate-table "
                 f"B={lanes}]",
                 n * lanes / _time_sharded(lanes, duration_s, workers)),
            ]
    entries = []
    for path, sps in rows:
        entries.append({
            "path": path,
            "samples_per_sec": round(sps, 1),
            "speedup_vs_reference": round(sps / sps_ref, 2),
        })
    started = GyroPlatform(GyroPlatformConfig())
    started.start()
    n_cross = int(round(crossover_s * fs))
    crossover = []
    for b in crossover_lanes:
        times = _time_layouts(started, b, crossover_s)
        row = {"lanes": b}
        for layout, seconds in times.items():
            row[f"{layout}_samples_per_sec"] = round(n_cross * b / seconds, 1)
        for backend in BACKENDS:
            row[f"lockstep_vs_lane[{backend}]"] = round(
                times[f"lane[{backend}]"] / times["lockstep"], 2)
        crossover.append(row)
    return {
        "scenario": ("fig5 locking run: sensor at rest from power-on, "
                     f"{duration_s} s @ {fs:.0f} Hz; campaign/sharded "
                     f"entries: {lanes}-point rate-table sweep of the same "
                     "length"),
        "samples": n,
        "batch_lanes": lanes,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "host": _host(),
        "compiled_backend": dict(
            backend_info(), cache_dir=backend_info()["cache_dir"].replace(
                os.path.expanduser("~"), "~", 1)),
        "entries": entries,
        "crossover_scenario": (f"one fleet of B rate-table lanes, "
                               f"{crossover_s} s each from a started "
                               "platform, forced onto each fleet layout "
                               "and lane backend"),
        # JSON has no infinity: null means every fleet runs lane by lane
        "lockstep_crossover": (None if math.isinf(compiled.LOCKSTEP_CROSSOVER)
                               else compiled.LOCKSTEP_CROSSOVER),
        "crossover": crossover,
        "store_scenario": (f"one campaign of {STORE_LANES} settled-output "
                           f"lanes, {STORE_S} s each from a started "
                           "platform: every entry put into a fresh "
                           "ResultStore (cold), then read back (warm hit); "
                           "one lane_digests call and the pickle size of "
                           "the started platform"),
        "store": _time_store(started, STORE_LANES, STORE_S),
        "branch_scenario": (f"one LaneSource.materialize call branching "
                            f"{BRANCH_LANES} campaign lanes from a started "
                            "platform"),
        "branch": _time_branch(started, BRANCH_LANES),
        "build_scenario": ("per kernel plan, in an empty temporary kernel "
                           "cache: the first request (C lowering, compile, "
                           "self-check) and a repeat request after the "
                           "in-process kernel table is cleared"),
        "build": _time_build() if compiled.COMPILER else [],
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
    report = build_report(duration, lanes, args.workers,
                          (4, 8) if args.quick else CROSSOVER_LANES,
                          0.01 if args.quick else CROSSOVER_S)
    # a --quick run measures a different scenario: never let it silently
    # overwrite the tracked perf-trajectory file
    output = args.output or (None if args.quick else REPORT_PATH)
    if output is not None:
        with open(output, "w") as fh:
            json.dump(report, fh, indent=2, allow_nan=False)
            fh.write("\n")
        print(f"wrote {output}")
    else:
        print("quick run (not written; pass --output to save)")
    for entry in report["entries"]:
        print(f"  {entry['path']:<40s} {entry['samples_per_sec']:>12,.0f} "
              f"samples/s   {entry['speedup_vs_reference']:>6.2f}x")
    for row in report["crossover"]:
        for backend in BACKENDS:
            print(f"  lockstep vs lane by lane [{backend}], "
                  f"B={row['lanes']:<3d}"
                  f"{row[f'lockstep_vs_lane[{backend}]']:>20.2f}x")
    for row in report["build"]:
        print(f"  build {row['plan']:<12s} cold {row['cold_build_s']:.2f} s, "
              f"warm {row['warm_load_ms']:.1f} ms")
    store = report["store"]
    print(f"  store, {store['lanes']} lanes: {store['entry_kib']:.1f} KiB "
          f"per entry, put {store['put_ms_per_lane']:.2f} ms/lane, "
          f"hit {store['hit_ms_per_lane']:.2f} ms/lane, "
          f"key {store['key_ms']:.2f} ms, "
          f"snapshot {store['snapshot_kib']:.1f} KiB")
    branch = report["branch"]
    print(f"  branch, {branch['lanes']} lanes: "
          f"{branch['ms_per_lane']:.2f} ms/lane")


if __name__ == "__main__":
    main()
