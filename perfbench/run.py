#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload rate-table --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` installs the per-layer wrappers of
``tracing.py``, prints the per-layer ledger, writes every span to
``.bench_build/perfbench/trace-<workload>-<seed>.json`` and reports the
per-layer metrics.  A human-readable report comes first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Outputs are checked against
``golden.json`` (seeds without goldens are checked for self-consistency
only, and the report says so); any mismatch makes the exit code 1.

The program is imported from ``src/`` of the same checkout, and every
file the run writes stays under ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import platform as host
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="request size; tiny is the self-test size")
    parser.add_argument("--report", help="also write a JSON report here")
    return parser.parse_args(argv)


def tail(values: list) -> tuple:
    """The highest percentile with at least ten values beyond it.

    Returns ``(value, percentile)``.  With 20 values or fewer that
    percentile would not lie above the median, so the slowest value
    (p100) is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def request_metrics(rec) -> tuple:
    """samples_per_s, call_p50_ms and call_tail_ms from recorded requests.

    ``samples_per_s`` is the median rate of the simulating requests and
    ``call_p50_ms`` the median request latency.  ``call_tail_ms`` is the
    :func:`tail` latency of each complete repeat, the median over repeats:
    a tail taken over the whole run would pick out the few requests
    during which the host changed speed, which no probe bracket catches.
    Scaled values rescale every time to the reference host speed with the
    probe bracket it was measured in (``hostspeed.py``); raw values keep
    the host times.  Returns ``(scaled, raw, tail percentile)``.
    """
    nan = float("nan")
    out = []
    pct = nan
    for scaled in (True, False):
        calls = [(s * (k if scaled else 1.0), r) for s, k, r in rec.calls]
        rates = [x / (k if scaled else 1.0) for x, k in rec.rates]
        by_repeat = {}
        for seconds, repeat in calls:
            by_repeat.setdefault(repeat, []).append(seconds)
        full = max((len(v) for v in by_repeat.values()), default=0)
        tails = [tail(v) for v in by_repeat.values() if len(v) == full]
        if not (tails and rates):             # cut short by a failure
            return ({"samples_per_s": nan, "call_p50_ms": nan,
                     "call_tail_ms": nan}, {}, nan)
        pct = tails[0][1]
        out.append({
            "samples_per_s": statistics.median(rates),
            "call_p50_ms": statistics.median(s for s, _r in calls) * 1e3,
            "call_tail_ms": statistics.median(t for t, _p in tails) * 1e3})
    return out[0], out[1], pct


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def git_commit() -> str:
    """HEAD commit read from ``.git`` (checkouts without one say so)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def provenance() -> dict:
    import numpy

    import repro.engine
    from repro.platform import GyroPlatformConfig
    from repro.scenarios import campaign

    cpu = host.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(str(path.relative_to(ROOT)).encode())
        sources.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": host.python_version(),
        "numpy": numpy.__version__,
        "compiled_backend": repro.engine.backend_info(),
        "default_scalar_engine": GyroPlatformConfig().engine,
        "default_campaign_engine": campaign.ENGINE_BATCHED,
        "git_commit": git_commit(),
        "src_sha256": sources.hexdigest()[:16],
    }


def import_program() -> float:
    """Import the program from this checkout's ``src/``; returns seconds."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401

    import repro
    import repro.engine  # noqa: F401
    import repro.eval  # noqa: F401
    import repro.faults  # noqa: F401
    import repro.platform  # noqa: F401
    import repro.scenarios  # noqa: F401
    import repro.store  # noqa: F401
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {ROOT / 'src'}")
    return time.perf_counter() - t0


def run(args, workdir: str) -> tuple:
    """Set up, measure and check one workload.

    Returns ``(recorder, metrics, info)``: the end-to-end metrics (plus
    the per-layer ones when tracing) and everything else the report
    prints.
    """
    import_s = import_program()
    import hostspeed
    from tracing import NullTracer, Tracer, format_ledger
    from workloads import WORKLOADS, Recorder

    golden_all = json.loads((HERE / "golden.json").read_text())
    golden = golden_all.get(f"{args.scale}:{args.seed}", {}).get(
        args.workload)
    workload = WORKLOADS[args.workload](args.seed, args.scale, workdir)
    tracer = (Tracer(args.workload, workdir) if args.trace
              else NullTracer())
    if tracer.enabled:
        tracer.install()

    # set-up runs the fused scalar start-up, so it takes the python probe;
    # the import is rescaled by the probe right after it
    import_s *= hostspeed.REFERENCE_S["python"] / hostspeed.probe("python")
    setup_times = []
    for rep in range(SETUP_REPS):
        with hostspeed.Bracket("python") as bracket:
            t0 = time.perf_counter()
            state = workload.setup()
            elapsed = time.perf_counter() - t0
        setup_times.append(elapsed * bracket.scale)
        if rep < SETUP_REPS - 1:
            workload.teardown(state)

    rec = Recorder(golden)
    durations = []
    error = None
    if tracer.enabled:
        tracer.start_measuring()
    start = time.perf_counter()
    try:
        while True:
            if len(durations) % workload.min_cycles == 0:
                rec.begin_repeat()
            t0 = time.perf_counter()
            workload.cycle(state, len(durations), rec, tracer)
            durations.append(time.perf_counter() - t0)
            # collect the previous request's garbage between requests, so
            # peak memory is the working set, not collector timing
            gc.collect()
            elapsed = time.perf_counter() - start
            if (len(durations) >= workload.min_cycles and elapsed
                    + 0.5 * statistics.mean(durations) >= args.seconds):
                break
    except Exception:
        error = traceback.format_exc()
        rec.attempted += 1
        rec.failed += 1
    finally:
        workload.teardown(state)
        for child in multiprocessing.active_children():
            child.join(timeout=5.0)
            if child.is_alive():
                child.kill()
                child.join()
    measured_s = time.perf_counter() - start
    if tracer.enabled:
        tracer.uninstall()

    metrics, raw, tail_pct = request_metrics(rec)
    metrics["setup_s"] = import_s + statistics.median(setup_times)
    metrics["peak_rss_mb"] = peak_rss_mb()
    info = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "measured_s": measured_s, "cycles": len(durations),
        "calls": len(rec.calls), "tail_percentile": tail_pct,
        "raw_host_time": raw,
        "repeats": rec.repeat + 1,
        "host_scale": statistics.median(k for _s, k, _r in rec.calls)
        if rec.calls else float("nan"),
        "import_s": import_s, "setup_reps_s": setup_times,
        "failed_frac": rec.failed / rec.attempted if rec.attempted else 1.0,
        "digests": ("checked against golden.json" if golden is not None
                    else "unchecked: no golden digests for this seed; "
                         "repeated requests checked against their first "
                         "run"),
        "mismatched_requests": sorted(set(rec.mismatched)),
        "fingerprint": hashlib.sha256(json.dumps(
            rec.fingerprint, sort_keys=True).encode()).hexdigest()[:16],
        "error": error,
    }
    if rec.served_s:
        info["warm_lanes_per_s"] = rec.served_lanes / rec.served_s
    if tracer.enabled:
        metrics.update(tracer.layer_metrics(rec.counters, len(durations),
                                            SETUP_REPS))
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(str(trace_path))
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        info["ledger"] = "\n".join(
            format_ledger(tracer.ledger(phase),
                          tracer.worker_spans if phase == "measured" else ())
            for phase in ("setup", "measured"))
    return rec, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    # the sharded executor and anything else asking for a temp dir stay
    # inside the checkout
    tempfile.tempdir = str(workdir / "tmp")
    try:
        rec, metrics, info = run(args, str(workdir))
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info["provenance"] = provenance()
    correct = rec.failed == 0 and info["error"] is None and rec.attempted > 0
    print(f"workload {info['workload']}  seed {info['seed']}  "
          f"scale {info['scale']}  tracing {'on' if args.trace else 'off'}")
    print(f"measured {info['measured_s']:.2f} s over {info['cycles']} "
          f"cycles; outputs {info['digests']}")
    print(f"times scaled to the reference host speed (median scale "
          f"{info['host_scale']:.3f}); raw host-time values: "
          + ", ".join(f"{k} {v:.6g}" for k, v in info["raw_host_time"].items()))
    for key, value in info["provenance"].items():
        print(f"  {key}: {value}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g}")
    print(f"  call_tail_ms is p{info['tail_percentile']:.2f} of each repeat"
          f" ({info['calls']} calls in {info['repeats']} repeats)")
    if "warm_lanes_per_s" in info:
        print(f"  warm_lanes_per_s = {info['warm_lanes_per_s']:.6g} 1/s")
    print(f"  failed_frac = {info['failed_frac']:.6g} "
          f"({rec.failed} of {rec.attempted})")
    if info["mismatched_requests"]:
        print(f"  MISMATCHED: {', '.join(info['mismatched_requests'])}")
    if info["error"]:
        print(info["error"], file=sys.stderr)
    if "ledger" in info:
        print(info["ledger"])
        print(f"  spans written to {info['trace_file']}")
    if args.report:
        report = dict(info, metrics=metrics, correct=correct)
        report.pop("ledger", None)
        Path(args.report).write_text(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
