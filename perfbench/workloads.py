"""Seeded inputs and closed-loop runners of the four benchmark workloads.

Each workload turns ``(seed, scale)`` into a fixed set of requests: the
program only ever receives the generated scenarios, whose rate points,
temperatures, probe frequencies and fault windows are drawn from the
seed.  One caller replays the requests in a closed loop (the next one
starts when the previous one returns) until the measuring time is used,
and always runs every distinct request at least once.  Each request
starts from a copy of the same set-up state, so a request's outputs are
the same every time it runs; :class:`Recorder` checks them against the
golden digests (or, for seeds without goldens, against the request's
first run).
"""

from __future__ import annotations

import copy
import os
import random
import shutil
import time

from repro.faults.models import AfeSaturation, SensorDropout, StuckAdcCode
from repro.platform import GyroPlatform
from repro.platform.result import content_digest
from repro.scenarios import Campaign, Scenario
from repro.scenarios.library import (
    bandwidth_probe_scenario,
    fault_scenario,
    noise_floor_scenario,
    rate_table_scenarios,
    settled_output_scenario,
    startup_complete,
)
from repro.sensors.environment import Environment
from repro.store import ResultStore

from hostspeed import Bracket

#: Samples per short host-polling call on ``single-platform``.
CALL_SAMPLES = 64

#: Request sizes.  ``full`` is what the benchmark measures; ``tiny`` is
#: the self-test size (same code paths, seconds instead of minutes).
#: Sizes and durations are fixed; the seed draws only values that leave
#: the amount of work unchanged, so seeds differ in inputs, not in cost.
SCALES = {
    "full": {"long_s": 0.4, "warmup_calls": 48, "burst_calls": 200,
             "sweeps": 3, "sweep_lanes": 32, "settle_s": 0.05,
             "legs": 2, "power_on_s": 0.06, "rate_points": 4,
             "record_s": 0.1, "probes": 3, "fault_s": 0.04,
             "store_lanes": 16, "warm_passes": 4},
    "tiny": {"long_s": 0.02, "warmup_calls": 2, "burst_calls": 8,
             "sweeps": 1, "sweep_lanes": 4, "settle_s": 0.01,
             "legs": 1, "power_on_s": 0.02, "rate_points": 1,
             "record_s": 0.04, "probes": 1, "fault_s": 0.03,
             "store_lanes": 4, "warm_passes": 1},
}


def lane_digest(lane) -> str | None:
    """Content digest of one campaign lane outcome (None: lane lost)."""
    return None if lane is None else content_digest(lane.to_dict())


def lane_samples(lanes, fs: float) -> int:
    """Simulated lane-samples behind a campaign's outcomes."""
    return sum(int(round(outcome.elapsed_s * fs))
               for lane in lanes if lane is not None
               for outcome in lane.outcomes)


class Recorder:
    """Timings, output checks and counters of one run.

    Every timing is kept raw together with the host-speed scale of the
    bracket it was measured in (see ``hostspeed.py``).  Request latencies
    are also grouped by *repeat*: one pass over every distinct request.
    """

    def __init__(self, golden: dict | None):
        self.golden = golden
        self.first_seen: dict = {}
        self.calls: list = []         # (raw seconds, scale, repeat)
        self.repeat = -1
        self.rates: list = []         # (raw lane-samples/s, scale)
        self.served_lanes = 0         # store-replay warm lanes
        self.served_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.mismatched: list = []
        self.fingerprint: dict = {}
        self.counters: dict = {}

    def check(self, rid: str, digests: list) -> None:
        """Compare one request's output digests with the expected ones."""
        expected = (self.golden.get(rid) if self.golden is not None
                    else self.first_seen.setdefault(rid, digests))
        self.fingerprint.setdefault(rid, digests)
        if expected is None:
            raise KeyError(f"no golden digests for request {rid!r}")
        bad = sum(1 for got, want in zip(digests, expected)
                  if got is None or got != want)
        bad += abs(len(expected) - len(digests))
        self.attempted += max(len(expected), len(digests))
        self.failed += bad
        if bad:
            self.mismatched.append(rid)

    def begin_repeat(self) -> None:
        self.repeat += 1

    def call(self, seconds: float, scale: float) -> None:
        """Record one request latency."""
        self.calls.append((seconds, scale, self.repeat))

    def rate(self, samples: int, seconds: float, scale: float) -> None:
        """Record the lane-samples one simulating request advanced."""
        self.rates.append((samples / seconds, scale))

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


def _round(value: float, step: float) -> float:
    return round(round(value / step) * step, 10)


class Workload:
    """A seeded request set plus its set-up and closed-loop cycle."""

    name = ""
    #: host-speed probe resembling the workload's hot path
    probe = "numpy"

    def __init__(self, seed: int, scale: str, workdir: str):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.size = SCALES[scale]
        self.workdir = workdir
        self.start_temp_c = _round(self.rng.uniform(0.0, 45.0), 0.5)
        self.generate()

    def generate(self) -> None:
        raise NotImplementedError

    def started_platform(self, engine: str | None = None) -> GyroPlatform:
        platform = GyroPlatform()
        if engine is not None:
            platform.config.engine = engine
        platform.start(self.start_temp_c)
        return platform

    def setup(self) -> dict:
        """Build the set-up state (timed as ``setup_s``)."""
        return {"platform": self.started_platform()}

    @property
    def min_cycles(self) -> int:
        """Cycles needed to run every distinct request once."""
        return 1

    def cycle(self, state: dict, index: int, rec: Recorder, tracer) -> None:
        raise NotImplementedError

    def teardown(self, state: dict) -> None:
        pass

    def reference_digests(self) -> dict:
        """Every request's digests, replayed on the ``reference`` engine."""
        raise NotImplementedError


class SinglePlatform(Workload):
    """Power-on locking runs plus bursts of short host-polling calls."""

    name = "single-platform"
    probe = "python"

    def generate(self) -> None:
        self.long_s = self.size["long_s"]
        self.long_temp_c = _round(self.rng.uniform(-20.0, 70.0), 0.5)
        burst_temp_c = _round(self.rng.uniform(0.0, 45.0), 0.5)
        self.warmup = self.size["warmup_calls"]
        self.burst = [Environment.constant_rate(
            _round(self.rng.uniform(-300.0, 300.0), 0.1), burst_temp_c)
            for _ in range(self.warmup + self.size["burst_calls"])]

    def setup(self) -> dict:
        return {"fresh": GyroPlatform(), "platform": self.started_platform()}

    def cycle(self, state, index, rec, tracer) -> None:
        fs = state["fresh"].config.sample_rate_hz
        platform = copy.deepcopy(state["fresh"])
        tracer.request("long")
        with Bracket(self.probe) as bracket:
            t0 = time.perf_counter()
            result = platform.run(Environment.still(self.long_temp_c),
                                  self.long_s, reset=True)
            elapsed = time.perf_counter() - t0
        rec.rate(int(round(self.long_s * fs)), elapsed, bracket.scale)
        rec.check("long", [result.digest()])
        platform = copy.deepcopy(state["platform"])
        tracer.request("burst")
        digests = []
        latencies = []
        with Bracket(self.probe) as bracket:
            for environment in self.burst:
                t0 = time.perf_counter()
                result = platform.run(environment, CALL_SAMPLES / fs)
                latencies.append(time.perf_counter() - t0)
                digests.append(result.digest())
        # the first calls on a fresh copy of a platform run several times
        # slower; a polling host keeps one platform, so they are checked
        # but not timed
        for latency in latencies[self.warmup:]:
            rec.call(latency, bracket.scale)
        rec.check("burst", digests)

    def reference_digests(self) -> dict:
        platform = GyroPlatform()
        platform.config.engine = "reference"
        long = platform.run(Environment.still(self.long_temp_c), self.long_s,
                            reset=True)
        platform = self.started_platform("reference")
        call_s = CALL_SAMPLES / platform.config.sample_rate_hz
        return {"long": [long.digest()],
                "burst": [platform.run(env, call_s).digest()
                          for env in self.burst]}


class _CampaignWorkload(Workload):
    """Workloads whose requests are whole campaigns branched from setup."""

    def campaigns(self) -> list:
        raise NotImplementedError

    @property
    def min_cycles(self) -> int:
        return len(self.campaigns())

    def cycle(self, state, index, rec, tracer) -> None:
        rid, campaign = self.campaigns()[index % len(self.campaigns())]
        platform = state["platform"]
        tracer.request(rid)
        with Bracket(self.probe) as bracket:
            t0 = time.perf_counter()
            result = campaign.run(platform)
            elapsed = time.perf_counter() - t0
        rec.call(elapsed, bracket.scale)
        rec.rate(lane_samples(result.lanes, platform.config.sample_rate_hz),
                 elapsed, bracket.scale)
        rec.check(rid, [lane_digest(lane) for lane in result.lanes])

    def reference_digests(self) -> dict:
        platform = self.started_platform("reference")
        return {rid: [lane_digest(lane) for lane in
                      campaign.run(platform, engine="reference").lanes]
                for rid, campaign in self.campaigns()}


class RateTable(_CampaignWorkload):
    """Homogeneous rate-table sweeps: every lane has the same length."""

    name = "rate-table"

    def generate(self) -> None:
        self._campaigns = []
        for k in range(self.size["sweeps"]):
            temp_c = _round(self.rng.uniform(-20.0, 70.0), 0.5)
            rates = [_round(self.rng.uniform(-300.0, 300.0), 0.1)
                     for _ in range(self.size["sweep_lanes"])]
            self._campaigns.append((f"sweep-{k}", Campaign(
                rate_table_scenarios(rates, temp_c, self.size["settle_s"]),
                name=f"rate-table-{k}")))

    def campaigns(self) -> list:
        return self._campaigns


class CharacterisationMix(_CampaignWorkload):
    """Heterogeneous characterisation programs of very different lengths.

    A full power-on start-up needs at least 0.55 s of simulated time, which
    would make one campaign take 11-20 s on the lockstep fleet and leave
    too few requests per run to take a steady median.  So the start-up legs come in two short kinds
    that keep the stop-check paths: power-on legs (reset, checked for
    RUNNING every 20 ms, cut before start-up completes) and RUNNING-check
    legs on the started platform, which stop early at their first check
    and go on to a settled point.
    """

    name = "characterisation-mix"

    def _fault(self):
        t_start = _round(self.rng.uniform(0.005, 0.015), 0.001)
        t_stop = _round(t_start + self.rng.uniform(0.005, 0.012), 0.001)
        kind = self.rng.choice(("saturation", "dropout", "stuck-adc"))
        if kind == "saturation":
            return AfeSaturation(t_start=t_start, t_stop=t_stop)
        if kind == "dropout":
            return SensorDropout(t_start=t_start, t_stop=t_stop)
        return StuckAdcCode(t_start=t_start, t_stop=t_stop,
                            code=self.rng.randint(-64, 64))

    def generate(self) -> None:
        size = self.size
        rng = self.rng

        def rate():
            return _round(rng.uniform(-300.0, 300.0), 0.1)

        def temp():
            return _round(rng.uniform(-20.0, 70.0), 0.5)

        programs = []
        for _ in range(size["legs"]):
            leg_temp = temp()
            programs.append(Scenario(
                name=f"power-on@{leg_temp:g}C",
                environment=Environment.still(leg_temp),
                duration_s=size["power_on_s"], reset=True,
                stop=startup_complete, stop_check_s=0.02))
            leg_temp = temp()
            programs.append([
                Scenario(name=f"running-check@{leg_temp:g}C",
                         environment=Environment.still(leg_temp),
                         duration_s=size["settle_s"], stop=startup_complete,
                         stop_check_s=0.01, require_stop=True),
                settled_output_scenario(rate(), leg_temp, size["settle_s"])])
        programs += [settled_output_scenario(rate(), temp(),
                                             size["settle_s"])
                     for _ in range(size["rate_points"])]
        programs.append(noise_floor_scenario(temp(), size["record_s"],
                                             band_hz=(20.0, 200.0)))
        for _ in range(size["probes"]):
            frequency_hz = _round(rng.uniform(10.0, 40.0), 0.5)
            programs.append(bandwidth_probe_scenario(
                frequency_hz, _round(rng.uniform(2.0, 20.0), 0.5),
                cycles=frequency_hz * size["record_s"],
                min_duration_s=size["record_s"]))
        programs.append(fault_scenario(self._fault(), rate(),
                                       size["fault_s"], temp()))
        self._campaigns = [("mix", Campaign(programs,
                                            name="characterisation"))]

    def campaigns(self) -> list:
        return self._campaigns


class StoreReplay(Workload):
    """Cold sharded pass into a fresh store, then warm in-process passes."""

    name = "store-replay"

    def generate(self) -> None:
        self.campaign = Campaign(
            [settled_output_scenario(
                _round(self.rng.uniform(-300.0, 300.0), 0.1),
                _round(self.rng.uniform(-20.0, 70.0), 0.5),
                self.size["settle_s"], name=f"lane-{i}")
             for i in range(self.size["store_lanes"])],
            name="store-replay")
        self.workers = os.cpu_count() or 1
        self._stores = 0

    def _fresh_store(self) -> tuple:
        path = os.path.join(self.workdir, f"store-{self._stores}")
        manifests = os.path.join(self.workdir, f"manifests-{self._stores}")
        self._stores += 1
        return ResultStore(path), manifests

    def setup(self) -> dict:
        state = super().setup()
        state["store"], state["manifests"] = self._fresh_store()
        return state

    def cycle(self, state, index, rec, tracer) -> None:
        if state["store"] is None:
            state["store"], state["manifests"] = self._fresh_store()
        store, manifests = state["store"], state["manifests"]
        platform = state["platform"]
        tracer.request(f"cold-{index}")
        # the pass waits for workers on every CPU: probe them all
        with Bracket(self.probe, all_cpus=True) as bracket:
            t0 = time.perf_counter()
            result = self.campaign.run(platform, store=store,
                                       workers=self.workers,
                                       manifest_dir=manifests)
            elapsed = time.perf_counter() - t0
        rec.rate(lane_samples(result.lanes, platform.config.sample_rate_hz),
                 elapsed, bracket.scale)
        tracer.collect_sharded(manifests)
        rec.check("lanes", [lane_digest(lane) for lane in result.lanes])
        for k in range(self.size["warm_passes"]):
            tracer.request(f"warm-{index}.{k}")
            with Bracket(self.probe) as bracket:
                t0 = time.perf_counter()
                result = self.campaign.run(platform, store=store)
                elapsed = time.perf_counter() - t0
            rec.call(elapsed, bracket.scale)
            rec.served_s += elapsed
            rec.served_lanes += len(result.lanes)
            # every warm lane must be served from the store, and served
            # lanes carry no platform
            rec.check("lanes", [lane_digest(lane)
                                if lane is None or lane.platform is None
                                else "simulated, not served"
                                for lane in result.lanes])
        for name in ("hits", "misses", "quarantined"):
            rec.count(f"store.{name}", getattr(store.stats, name))
        state["store"] = None
        shutil.rmtree(store.directory)
        shutil.rmtree(manifests, ignore_errors=True)

    def teardown(self, state: dict) -> None:
        if state.get("store") is not None:
            shutil.rmtree(state["store"].directory, ignore_errors=True)

    def reference_digests(self) -> dict:
        platform = self.started_platform("reference")
        return {"lanes": [lane_digest(lane) for lane in self.campaign.run(
            platform, engine="reference").lanes]}


WORKLOADS = {cls.name: cls for cls in (SinglePlatform, RateTable,
                                       CharacterisationMix, StoreReplay)}
