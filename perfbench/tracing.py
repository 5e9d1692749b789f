"""Per-layer tracing installed from outside the program.

A :class:`Tracer` wraps public entry points of the co-simulation stack at
run time and records one span per call: name, start, end, parent span,
workload and request id.  Nothing in ``src/`` changes; ``uninstall()``
puts every original back.  Spans stay in memory until :meth:`write`.

Layers are named after the modules they wrap:

* ``engine``   -- ``EngineSpec.run`` / ``EngineSpec.run_fleet`` through the
  ``repro.scenarios.engines`` registry, plus first-use kernel generation;
* ``platform`` -- ``GyroPlatform.run`` / ``GyroPlatform.start``;
* ``campaign`` -- ``Campaign.run``, lane branching
  (``LaneSource.materialize``) and the metric extractors;
* ``executor`` -- the sharded runner of the executor registry, plus the
  per-attempt ``history`` of its manifest;
* ``store``    -- ``ResultStore.get`` / ``put`` and key hashing
  (``LaneSource.lane_digests`` + ``lane_key``).

Sharded workers are forked from the traced process, so they inherit the
wrappers; each worker writes its own spans to a file that the parent
merges.  Worker time runs beside the parent's, so it is reported in its
own section and is not part of the parent's wall-time ledger.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import json
import os
import statistics
import time
from collections import defaultdict

LAYERS = ("engine", "platform", "campaign", "executor", "store")


class NullTracer:
    """Stand-in used with tracing off: every hook is a no-op."""

    enabled = False

    def request(self, rid: str) -> None:
        pass

    def collect_sharded(self, manifest_root: str) -> None:
        pass


class Tracer:
    """Records spans around the stack's entry points (see module doc)."""

    enabled = True

    def __init__(self, workload: str, worker_dir: str):
        self.workload = workload
        self.worker_dir = worker_dir
        self.spans = []          # [id, parent, name, start, end, rid, attrs]
        self.worker_spans = []
        self.passes = []         # sharded executor passes, from manifests
        self._stack = []
        self._next_id = 0
        self._rid = "setup"
        self._patches = []
        self.t0 = self.t_measure = self.t1 = None

    # -- span recording -----------------------------------------------------

    def request(self, rid: str) -> None:
        """Tag the spans that follow with a request id."""
        self._rid = rid

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        attrs = {}
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append([sid, parent, name, start, end, self._rid,
                               attrs])

    def _wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as attrs:
                result = original(*args, **kwargs)
                if annotate is not None:
                    annotate(attrs, args, result)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from repro.engine import compiled
        from repro.eval import metrics as eval_metrics
        from repro.platform.gyro_platform import GyroPlatform
        from repro.scenarios import executor, library
        from repro.scenarios.campaign import Campaign
        from repro.scenarios.engines import EngineSpec
        from repro.store import serve
        from repro.store.store import ResultStore

        self.t0 = time.perf_counter()
        self._wrap(EngineSpec, "run", "engine.run", _annotate_run)
        self._wrap(EngineSpec, "run_fleet", "engine.fleet", _annotate_fleet)
        self._wrap_warmup(compiled)
        self._wrap(GyroPlatform, "run", "platform.run")
        self._wrap(GyroPlatform, "start", "platform.start")
        self._wrap(Campaign, "run", "campaign.run")
        self._wrap(executor.LaneSource, "materialize", "campaign.branch")
        for cls in (library.TraceTailMean, library.TraceTailStd,
                    library.RawRateChannel, library.TurnOnTime,
                    library.RunningAtEnd, library.NoiseDensity,
                    library.SineResponseGain, eval_metrics.DetectionLatency,
                    eval_metrics.TimeInSaturation,
                    eval_metrics.PostFaultBiasShift,
                    eval_metrics.SurvivedVerdict):
            self._wrap(cls, "__call__", "campaign.extract")
        self._wrap(executor.LaneSource, "lane_digests", "store.key")
        self._wrap(serve, "lane_key", "store.key")
        self._wrap(ResultStore, "get", "store.get", _annotate_get)
        self._wrap(ResultStore, "put", "store.put", _annotate_put)
        self._wrap_sharded(executor)

    def _wrap_warmup(self, compiled) -> None:
        """Time kernel generation only when it misses the kernel cache."""
        original = compiled.__dict__["_compile_kernel"]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            before = len(compiled._KERNELS)
            start = time.perf_counter()
            fn = original(*args, **kwargs)
            if len(compiled._KERNELS) > before:
                parent = tracer._stack[-1] if tracer._stack else None
                sid = tracer._next_id
                tracer._next_id += 1
                tracer.spans.append([sid, parent, "engine.warmup", start,
                                     time.perf_counter(), tracer._rid, {}])
            return fn

        compiled._compile_kernel = wrapper
        self._patches.append((compiled, "_compile_kernel", original))

    def _wrap_sharded(self, executor) -> None:
        """Wrap the sharded runner (registry entry) and its worker main."""
        import dataclasses
        spec = executor._REGISTRY[executor.EXECUTOR_SHARDED]
        tracer = self

        def runner(*args, **kwargs):
            with tracer.span("executor.sharded"):
                return spec.runner(*args, **kwargs)

        executor._REGISTRY[executor.EXECUTOR_SHARDED] = dataclasses.replace(
            spec, runner=runner)
        self._patches.append((executor._REGISTRY, executor.EXECUTOR_SHARDED,
                              spec))

        worker_main = executor.__dict__["_shard_worker_main"]

        def traced_worker_main(task):
            # forked child: start an empty span list of its own
            tracer.spans = []
            tracer._stack = []
            tracer._rid = f"{tracer._rid}/shard-{task['shard_id']}"
            worker_main(task)
            path = os.path.join(
                tracer.worker_dir,
                f"worker-{os.getpid()}-{task['shard_id']}-"
                f"{task['attempt']}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)

        executor._shard_worker_main = traced_worker_main
        self._patches.append((executor, "_shard_worker_main", worker_main))

    def uninstall(self) -> None:
        self.t1 = time.perf_counter()
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches = []

    # -- sharded passes -----------------------------------------------------

    def collect_sharded(self, manifest_root: str) -> None:
        """Merge worker spans and read attempt history after a pass.

        ``executor.sharded`` spans are matched to passes in order, so
        call this once after every sharded campaign.
        """
        for path in sorted(glob.glob(os.path.join(self.worker_dir,
                                                  "worker-*.json"))):
            with open(path, encoding="utf-8") as fh:
                self.worker_spans.extend(json.load(fh))
            os.remove(path)
        for path in glob.glob(os.path.join(manifest_root, "**",
                                           "manifest.json"), recursive=True):
            with open(path, encoding="utf-8") as fh:
                shards = json.load(fh)["shards"]
            credited = [entry["duration_s"] for shard in shards
                        for entry in shard["history"]
                        if entry["outcome"] == "ok"]
            self.passes.append({
                "shards": len(shards),
                "attempts": sum(shard["attempts"] for shard in shards),
                "credited_s": credited})

    # -- reduction ----------------------------------------------------------

    def start_measuring(self) -> None:
        """Mark the end of set-up and the start of the measured region."""
        self.t_measure = time.perf_counter()
        self._rid = "measured"

    def ledger(self, phase: str) -> dict:
        """Self time per span name over the wall time of one phase.

        ``phase`` is ``"setup"`` (tracer install to the first request)
        or ``"measured"`` (the first request to uninstall).  Per span
        name the ledger holds self time (span minus its child spans),
        total time and calls; ``other_s`` is the wall time no span
        covers, so self times plus ``other_s`` equal ``wall_s``.
        """
        if phase == "setup":
            spans = [s for s in self.spans if s[5] == "setup"]
            wall = self.t_measure - self.t0
        else:
            spans = [s for s in self.spans if s[5] != "setup"]
            wall = self.t1 - self.t_measure
        child_time = defaultdict(float)
        for _sid, parent, _name, start, end, _rid, _attrs in spans:
            if parent is not None:
                child_time[parent] += end - start
        rows = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0,
                                    "calls": 0})
        phases = defaultdict(float)
        for sid, _parent, name, start, end, rid, _attrs in spans:
            self_s = (end - start) - child_time[sid]
            row = rows[name]
            row["self_s"] += self_s
            row["total_s"] += end - start
            row["calls"] += 1
            phases[(rid.split("-")[0], name.split(".")[0])] += self_s
        covered = sum(row["self_s"] for row in rows.values())
        return {"phase": phase, "wall_s": wall, "rows": dict(rows),
                "other_s": wall - covered, "phases": dict(phases)}

    def layer_metrics(self, counters: dict, cycles: int,
                      setup_reps: int) -> dict:
        """The per-layer metrics listed in ``perfbench/spec.json``.

        Times and counts of the measured region are per cycle (one pass
        over a workload's request unit), so they do not grow when a
        faster program fits more cycles into the same measuring time.
        ``platform.start_s`` is per set-up repetition and
        ``engine.warmup_s`` is the run's total.
        """
        measured = self.ledger("measured")
        rows = measured["rows"]
        timed = [s for s in self.spans if s[5] != "setup"]
        timed += self.worker_spans
        by_name = defaultdict(list)
        for span in timed:
            by_name[span[2]].append(span)
        names = {span[0]: span[2] for span in self.spans}

        def total(name, spans=by_name):
            return sum((s[4] - s[3] for s in spans[name]), 0.0)

        def mean_ms(spans):
            return (sum(s[4] - s[3] for s in spans) / len(spans) * 1e3
                    if spans else 0.0)

        run_s, fleet_s = total("engine.run"), total("engine.fleet")
        samples = sum(s[6]["samples"] for s in by_name["engine.run"]
                      + by_name["engine.fleet"])
        slots = sum(s[6]["slots"] for s in by_name["engine.fleet"])
        fleet_samples = sum(s[6]["samples"] for s in by_name["engine.fleet"])
        platform_runs = rows.get("platform.run", {"self_s": 0.0, "calls": 0})
        # campaign rounds: engine calls the campaign layer issued, i.e.
        # every engine call not made directly by GyroPlatform.run
        rounds = len(by_name["engine.fleet"]) + sum(
            1 for s in by_name["engine.run"]
            if names.get(s[1]) != "platform.run")
        puts = by_name["store.put"]
        walls = [s[4] - s[3] for s in by_name["executor.sharded"]]
        credited = [p["credited_s"] for p in self.passes]
        imbalance = [max(c) / statistics.mean(c) for c in credited if c]
        everything = defaultdict(list)
        for span in self.spans:
            everything[span[2]].append(span)
        per_cycle = {
            "engine.run_s": run_s,
            "engine.run_calls": len(by_name["engine.run"]),
            "engine.fleet_s": fleet_s,
            "engine.fleet_calls": len(by_name["engine.fleet"]),
            "campaign.branch_s": total("campaign.branch"),
            "campaign.extract_s": total("campaign.extract"),
            "campaign.rounds": rounds,
            "campaign.self_s": rows.get("campaign.run",
                                        {"self_s": 0.0})["self_s"],
            "executor.wall_s": sum(walls),
            "executor.worker_s": sum(sum(c) for c in credited),
            "executor.overhead_s": sum(wall - max(c, default=0.0)
                                       for wall, c in zip(walls, credited)),
            "store.key_s": total("store.key"),
            "store.hits": counters.get("store.hits", 0),
            "store.misses": counters.get("store.misses", 0),
            "store.quarantined": counters.get("store.quarantined", 0),
            "bench.other_s": measured["other_s"],
        }
        out = {name: value / cycles for name, value in per_cycle.items()}
        out.update({
            "engine.ns_per_lane_sample": (
                (run_s + fleet_s) / samples * 1e9 if samples else 0.0),
            "engine.fleet_occupancy": fleet_samples / slots if slots else 0.0,
            "engine.warmup_s": total("engine.warmup", everything),
            "platform.run_overhead_us": (
                platform_runs["self_s"] / platform_runs["calls"] * 1e6
                if platform_runs["calls"] else 0.0),
            "platform.start_s": total("platform.start", everything)
            / setup_reps,
            "executor.imbalance": (statistics.mean(imbalance)
                                   if imbalance else 0.0),
            "executor.attempts_per_shard": (
                sum(p["attempts"] for p in self.passes)
                / sum(p["shards"] for p in self.passes)
                if self.passes else 0.0),
            "store.put_ms": mean_ms(puts),
            "store.get_ms": mean_ms([s for s in by_name["store.get"]
                                     if s[6]["hit"]]),
            "store.entry_kb": (sum(s[6]["bytes"] for s in puts) / len(puts)
                               / 1024 if puts else 0.0),
        })
        return out

    def write(self, path: str) -> None:
        """Write every recorded span (parent and workers) as JSON."""
        def record(span, process):
            sid, parent, name, start, end, rid, attrs = span
            return {"id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "workload": self.workload,
                    "request": rid, "process": process, **attrs}

        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.workload,
                       "wall_s": self.t1 - self.t0,
                       "spans": ([record(s, "parent") for s in self.spans]
                                 + [record(s, "worker")
                                    for s in self.worker_spans])}, fh)


def format_ledger(ledger: dict, worker_spans) -> str:
    """Human-readable per-layer ledger: self ms and share of wall time."""
    wall = ledger["wall_s"]
    lines = [f"per-layer ledger, {ledger['phase']} (wall "
             f"{wall * 1e3:.1f} ms; self time = span minus child spans)",
             f"  {'span':<18}{'self ms':>12}{'% wall':>9}{'calls':>9}"]
    for name in sorted(ledger["rows"], key=lambda n: (
            LAYERS.index(n.split(".")[0]), n)):
        row = ledger["rows"][name]
        lines.append(f"  {name:<18}{row['self_s'] * 1e3:>12.1f}"
                     f"{100 * row['self_s'] / wall:>8.1f}%{row['calls']:>9}")
    other = ledger["other_s"]
    lines.append(f"  {'bench.other':<18}{other * 1e3:>12.1f}"
                 f"{100 * other / wall:>8.1f}%")
    lines.append("  by phase (request kind, layer): self ms")
    for (phase, layer), self_s in sorted(ledger["phases"].items()):
        lines.append(f"    {phase:<10}{layer:<10}{self_s * 1e3:>12.1f}")
    if worker_spans:
        totals = defaultdict(lambda: [0.0, 0])
        for span in worker_spans:
            totals[span[2]][0] += span[4] - span[3]
            totals[span[2]][1] += 1
        lines.append("  in sharded workers (beside the parent's wall time):")
        for name, (seconds, calls) in sorted(totals.items()):
            lines.append(f"    {name:<16}{seconds * 1e3:>12.1f} ms"
                         f"{calls:>9} calls")
    return "\n".join(lines)


def _annotate_run(attrs, args, _result) -> None:
    _spec, platform, _environment, duration_s = args[:4]
    attrs["samples"] = int(round(duration_s
                                 * platform.config.sample_rate_hz))


def _annotate_fleet(attrs, args, _result) -> None:
    _spec, platforms, _environments, durations_s = args[:4]
    fs = platforms[0].config.sample_rate_hz
    steps = [int(round(d * fs)) for d in durations_s]
    attrs["samples"] = sum(steps)
    attrs["slots"] = len(steps) * max(steps)


def _annotate_get(attrs, _args, result) -> None:
    attrs["hit"] = result is not None


def _annotate_put(attrs, _args, path) -> None:
    attrs["bytes"] = os.path.getsize(path)
