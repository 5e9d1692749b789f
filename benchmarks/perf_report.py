"""Engine performance report: reference vs. compiled, per lane backend.

Times the co-simulation paths on the same fixed workload — the Fig. 5
drive-loop locking scenario (sensor at rest from power-on) — plus the
scenario-campaign orchestrator on a rate-table sweep, both in-process
and through the sharded multi-process executor, and on a temperature
ramp in-process, on the default engine with each lane-kernel backend
(C and generated Python), and writes ``BENCH_engine.json`` at the
repository root so the perf trajectory can be tracked across PRs.

Schema: a list of ``{path, samples_per_sec, speedup_vs_reference}``
records under ``"entries"``; the compiled, campaign and sharded paths
carry their backend in brackets.  ``samples_per_sec`` is simulated
samples per wall-clock second; for the campaign paths all fleet lanes
count, so their speedup is the *per-scenario* throughput gain at ``B``
lanes.  A rate-table round of C lanes runs on ``lane_threads`` threads
(``min(cpu_count, B)``); the ``ramp`` row's lanes (``RAMP_LANES``, each
under a 25 → 85 °C ramp over the run) retune their sensors within the
round, so its rounds run serially, and its propagator memo is emptied
before each repeat, as in a fresh process.  The sharded rows empty the
memo too: the ``rate-table`` row's lanes all stay at 25 °C and never
retune, while each of the ``temps`` row's ``TEMP_LANES`` lanes (at
rest, at constant temperatures spread over ``TEMPS_C``) retunes once.
``"build"`` times the C backend's on-disk kernel cache in a temporary
cache directory, per kernel plan: the cold build (lowering, compiling
and the self-check) and the warm load from the cache in the same
process.
``"store"`` times the result store on one campaign of ``STORE_LANES``
0.05 s settled-output lanes branched from a started platform: the mean
entry size, the put time per lane into a fresh store (cold), the hit
time per lane reading every entry back (warm), the lane-key cost
(``LaneSource.resolve`` + ``lane_digests`` on the started platform:
one pickle and one normalising round trip) and the size of that
platform's pickle, the snapshot every lane key and branch hashes or
loads.  ``"branch"`` times ``LaneSource.resolve`` + ``materialize``
branching ``BRANCH_LANES`` campaign lanes from a started platform, per
lane.
``"short_call"`` times, per lane backend, a host polling a started
platform: the median microseconds of a ``SHORT_CALL_SAMPLES``-sample
``GyroPlatform.run`` after ``SHORT_CALL_WARMUP`` untimed calls (as the
``single-platform`` benchmark workload does), the nanoseconds per
sample of a ``LONG_CALL_SAMPLES``-sample call, and the fixed cost of a
call, ``call_us - SHORT_CALL_SAMPLES * ns_per_sample``.  ``"startup"`` runs
``STARTUP_RUNS`` fresh interpreters that each import the modules
``perfbench/run.py`` imports (its ``import_program``) and start a
``GyroPlatform``: the median import time, the number of modules loaded
after the start, whether ``scipy.signal`` is among them, and the median
peak RSS.  ``"host"``
records the CPU model and the Python and NumPy versions the report ran
on.  ``compiled_backend`` records the default backend and the compiler;
kernel generation and builds are excluded from every timing but
``"build"`` (a throwaway run compiles and caches the kernels before the
clock starts).

Run with:  python benchmarks/perf_report.py [--quick]
"""

import argparse
import contextlib
import json
import os
import pickle
import platform as host
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.engine import backend_info                      # noqa: E402
from repro.engine import compiled                          # noqa: E402
from repro.engine.compiled import kernel_plan              # noqa: E402
from repro.platform import GyroPlatform, GyroPlatformConfig  # noqa: E402
from repro.scenarios import (                               # noqa: E402
    Campaign,
    Scenario,
    rate_table_scenarios,
    settled_output_scenario,
)
from repro.scenarios.executor import LaneSource            # noqa: E402
from repro.sensors import Environment, resonator           # noqa: E402
from repro.sensors.environment import (                    # noqa: E402
    ConstantProfile,
    RampProfile,
)
from repro.store import ResultStore                        # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
REPORT_PATH = os.path.join(REPO_ROOT, "BENCH_engine.json")

DURATION_S = 0.5   # the fixed locking scenario
BATCH_LANES = 32
RAMP_LANES = 4
RAMP_C = (25.0, 85.0)  # temperature at the start and end of a ramp lane
TEMP_LANES = 16
TEMPS_C = (-20.0, 70.0)  # coldest and hottest lane of the temps row
STORE_LANES = 16
STORE_S = 0.05       # settled-output lane length
BRANCH_LANES = 32
SHORT_CALL_SAMPLES = 64
SHORT_CALL_WARMUP = 48
SHORT_CALLS = 400
LONG_CALL_SAMPLES = 6000
STARTUP_RUNS = 5


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


def _time_campaign(lanes: int, duration_s: float) -> float:
    """Time a rate-table campaign: B settled-output scenarios, one fleet.

    The platform start-up is not timed — the campaign layer is what is
    being measured: scenario branching, the per-round fleet calls and
    metric extraction on top of the lane kernels.  One untimed run
    comes first: on a 2-vCPU Xeon the first threaded campaigns after
    the second CPU sat idle ran up to 1.8x slower than the ones after
    them.
    """
    rates = [(-200.0 + 400.0 * i / max(lanes - 1, 1)) for i in range(lanes)]
    campaign = Campaign(rate_table_scenarios(rates, settle_s=duration_s),
                        name="bench-rate-table")
    best = float("inf")
    for rep in range(REPEATS + 1):
        platform = GyroPlatform(GyroPlatformConfig())
        platform.start()
        start = time.perf_counter()
        campaign.run(platform)
        if rep:
            best = min(best, time.perf_counter() - start)
    return best


def _time_ramp(lanes: int, duration_s: float) -> float:
    """Time a campaign whose lanes ramp the temperature.

    ``lanes`` settled-output lanes at spread rates, each under a
    ``RAMP_C`` ramp over its whole run, branched from a started
    platform: every lane retunes its sensor about 1,200 times, so its
    rounds stay in the calling thread.  The propagator memo is emptied
    before each repeat, so the first lane computes every propagator
    and the others read them, as in a fresh process.
    """
    rates = [(-200.0 + 400.0 * i / max(lanes - 1, 1)) for i in range(lanes)]
    ramp = RampProfile(*RAMP_C, t0=0.0, t1=duration_s)
    campaign = Campaign([Scenario(f"ramp[{i}]", Environment(
        rate_dps=ConstantProfile(rate), temperature_c=ramp), duration_s)
        for i, rate in enumerate(rates)], name="bench-ramp")
    best = float("inf")
    for _ in range(REPEATS):
        platform = GyroPlatform(GyroPlatformConfig())
        platform.start()
        resonator.propagator.cache_clear()
        start = time.perf_counter()
        campaign.run(platform)
        best = min(best, time.perf_counter() - start)
    return best


def _time_sharded(scenarios, workers: int) -> float:
    """Time a campaign of ``scenarios`` through the sharded executor.

    Includes everything sharding adds on top of the campaign row:
    pickling lane programs and the base platform to the workers, worker
    start-up, manifest bookkeeping and result-file round-trips.  Each
    repeat gets a fresh manifest directory so nothing is resumed, and
    an empty propagator memo, as in a fresh process.
    """
    campaign = Campaign(scenarios, name="bench-sharded")
    best = float("inf")
    for _ in range(REPEATS):
        platform = GyroPlatform(GyroPlatformConfig())
        platform.start()
        resonator.propagator.cache_clear()
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
    time of one ``resolve`` + ``lane_digests`` pair (the snapshot and
    its normalised digest) and the platform's pickle size.
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
    key_s = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        LaneSource.resolve(platform, None, lanes).lane_digests(lanes)
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

    One ``LaneSource.resolve`` (the snapshot) and one ``materialize``
    call build every lane of a ``lanes``-lane campaign on the started
    ``platform``; returns the best time per lane.
    """
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        LaneSource.resolve(platform, None, lanes).materialize(range(lanes))
        best = min(best, time.perf_counter() - start)
    return {"lanes": lanes, "ms_per_lane": round(best / lanes * 1e3, 3)}


def _time_short_call(started) -> dict:
    """Time short polling calls and one long call on a started platform.

    On a copy of ``started``: ``SHORT_CALL_WARMUP`` untimed
    ``SHORT_CALL_SAMPLES``-sample calls, then the median of
    ``SHORT_CALLS`` timed ones, and the best per-sample time of
    ``REPEATS`` calls of ``LONG_CALL_SAMPLES`` samples.
    """
    platform = pickle.loads(pickle.dumps(started))
    fs = platform.config.sample_rate_hz
    environment = Environment.constant_rate(10.0)
    short_s = SHORT_CALL_SAMPLES / fs
    for _ in range(SHORT_CALL_WARMUP):
        platform.run(environment, short_s)
    seconds = []
    for _ in range(SHORT_CALLS):
        start = time.perf_counter()
        platform.run(environment, short_s)
        seconds.append(time.perf_counter() - start)
    long_s = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        platform.run(environment, LONG_CALL_SAMPLES / fs)
        long_s = min(long_s, time.perf_counter() - start)
    call_us = statistics.median(seconds) * 1e6
    ns_per_sample = long_s / LONG_CALL_SAMPLES * 1e9
    return {"call_us": round(call_us, 1),
            "ns_per_sample": round(ns_per_sample, 1),
            "fixed_us": round(call_us - SHORT_CALL_SAMPLES * ns_per_sample
                              / 1e3, 1)}


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


# the probe reads its own peak RSS (VmHWM): a child's ru_maxrss starts
# at the resident set of the parent that started it, here the report
_STARTUP_PROBE = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from run import import_program
import_s = import_program()
from repro.platform import GyroPlatform
GyroPlatform().start()
try:
    with open("/proc/self/status") as fh:
        peak_kib = next(int(line.split()[1]) for line in fh
                        if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"import_s": import_s, "modules": len(sys.modules),
                  "scipy_signal": "scipy.signal" in sys.modules,
                  "peak_rss_mb": peak_kib / 1024}))
"""


def _time_startup() -> dict:
    """Import and start-up cost of a fresh interpreter (see the module
    docstring); each run is its own process, so nothing is cached."""
    perfbench = os.path.join(REPO_ROOT, "perfbench")
    runs = [json.loads(subprocess.run(
                [sys.executable, "-c", _STARTUP_PROBE, perfbench],
                capture_output=True, text=True, check=True,
            ).stdout.splitlines()[-1])
            for _ in range(STARTUP_RUNS)]
    return {"runs": STARTUP_RUNS,
            "import_s": round(statistics.median(
                r["import_s"] for r in runs), 3),
            "modules": runs[-1]["modules"],
            "scipy_signal_loaded": any(r["scipy_signal"] for r in runs),
            "peak_rss_mb": round(statistics.median(
                r["peak_rss_mb"] for r in runs), 1)}


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
                 workers: int = None) -> dict:
    """Time the engines and the campaign layer; return the report dict."""
    fs = GyroPlatformConfig().sample_rate_hz
    n = int(round(duration_s * fs))
    workers = workers or min(2, os.cpu_count() or 1)

    rates = [(-200.0 + 400.0 * i / max(lanes - 1, 1)) for i in range(lanes)]
    cold, hot = TEMPS_C
    temperatures = [settled_output_scenario(
        0.0, cold + (hot - cold) * i / (TEMP_LANES - 1), settle_s=duration_s)
        for i in range(TEMP_LANES)]

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
                (f"campaign[{backend}, ramp B={RAMP_LANES}]",
                 n * RAMP_LANES / _time_ramp(RAMP_LANES, duration_s)),
                (f"sharded[{backend}, {workers} workers, rate-table "
                 f"B={lanes}]",
                 n * lanes / _time_sharded(
                     rate_table_scenarios(rates, settle_s=duration_s),
                     workers)),
                (f"sharded[{backend}, {workers} workers, {TEMP_LANES} "
                 "temps]",
                 n * TEMP_LANES / _time_sharded(temperatures, workers)),
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
    short_call = {}
    for backend in BACKENDS:
        with _backend(backend):
            short_call[backend] = _time_short_call(started)
    return {
        "scenario": ("fig5 locking run: sensor at rest from power-on, "
                     f"{duration_s} s @ {fs:.0f} Hz; campaign/sharded "
                     f"rate-table entries: {lanes}-point rate-table sweep "
                     "of the same length, whose lanes all stay at 25 degC "
                     "and never retune; ramp entries: "
                     f"{RAMP_LANES} lanes of the same length, each ramping "
                     f"{RAMP_C[0]:g} -> {RAMP_C[1]:g} degC; temps entries: "
                     f"{TEMP_LANES} settled-output lanes of the same length "
                     f"at rest, at constant temperatures from {TEMPS_C[0]:g} "
                     f"to {TEMPS_C[1]:g} degC, from a started platform; "
                     "sharded entries start from an empty propagator memo"),
        "samples": n,
        "batch_lanes": lanes,
        "workers": workers,
        "lane_threads": min(os.cpu_count() or 1, lanes),
        "cpu_count": os.cpu_count(),
        "host": _host(),
        "compiled_backend": dict(
            backend_info(), cache_dir=backend_info()["cache_dir"].replace(
                os.path.expanduser("~"), "~", 1)),
        "entries": entries,
        "store_scenario": (f"one campaign of {STORE_LANES} settled-output "
                           f"lanes, {STORE_S} s each from a started "
                           "platform: every entry put into a fresh "
                           "ResultStore (cold), then read back (warm hit); "
                           "one LaneSource.resolve + lane_digests pair and "
                           "the pickle size of the started platform"),
        "store": _time_store(started, STORE_LANES, STORE_S),
        "branch_scenario": (f"one LaneSource.resolve + materialize pair "
                            f"branching {BRANCH_LANES} campaign lanes from a "
                            "started platform"),
        "branch": _time_branch(started, BRANCH_LANES),
        "short_call_scenario": (
            f"a started platform polled with {SHORT_CALL_SAMPLES}-sample "
            f"GyroPlatform.run calls: the median of {SHORT_CALLS} after "
            f"{SHORT_CALL_WARMUP} untimed ones, the per-sample time of one "
            f"{LONG_CALL_SAMPLES}-sample call and the fixed cost per call "
            f"(call_us - {SHORT_CALL_SAMPLES} x ns_per_sample)"),
        "short_call": short_call,
        "startup_scenario": (
            f"{STARTUP_RUNS} fresh interpreters, each importing the modules "
            "perfbench/run.py imports and starting a GyroPlatform: median "
            "import time, modules loaded after the start, whether "
            "scipy.signal is one, median peak RSS"),
        "startup": _time_startup(),
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
    report = build_report(duration, lanes, args.workers)
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
    print(f"  {report['cpu_count']} CPUs: rate-table rounds on "
          f"{report['lane_threads']} threads, sharded rows on "
          f"{report['workers']} workers")
    for entry in report["entries"]:
        print(f"  {entry['path']:<40s} {entry['samples_per_sec']:>12,.0f} "
              f"samples/s   {entry['speedup_vs_reference']:>6.2f}x")
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
    for backend, row in report["short_call"].items():
        print(f"  short call [{backend}]: {row['call_us']:.1f} us per "
              f"{SHORT_CALL_SAMPLES}-sample call, {row['ns_per_sample']:.1f} "
              f"ns/sample, fixed {row['fixed_us']:.1f} us")
    startup = report["startup"]
    signal = "loaded" if startup["scipy_signal_loaded"] else "not loaded"
    print(f"  start-up: import {startup['import_s']:.2f} s (median of "
          f"{startup['runs']}), {startup['modules']} modules after start(), "
          f"scipy.signal {signal}, peak RSS {startup['peak_rss_mb']:.1f} MB")


if __name__ == "__main__":
    main()
