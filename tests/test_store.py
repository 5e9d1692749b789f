"""Tests for the durable result store (``repro.store``).

The store's promise is three-fold and every class here locks one face
of it: **durability** (entries survive exactly or not at all — a
truncated or flipped-byte file is never readable-but-wrong),
**self-healing** (damaged entries quarantine, re-simulate and come back
bit-identical), and **serving** (a warm store answers repeated
campaigns and characterisations with zero fleet simulation).  The
content-addressed keys are property-tested for the invariances the
design claims: stable across process restarts and pickle round-trips,
insensitive to fault and extractor declaration order, insensitive to
the executor (executors are bit-identity-locked, so they are
provenance, not identity).
"""

import copy
import hashlib
import json
import math
import os
import pickle
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from strategies.settings import (
    DETERMINISM_SETTINGS,
    SLOW_SETTINGS,
    STANDARD_SETTINGS,
)

import repro
from repro.chaos import (
    ChaosPlan,
    Enospc,
    InjectedCrash,
    KillMidRename,
    WorkerError,
)
from repro.chaos import runtime as chaos_runtime
from repro.common import ConfigurationError, StoreError, StoreIntegrityError
from repro.common.retry import RetryPolicy
from repro.eval.metrics import CharacterizationConfig, GyroCharacterization
from repro.faults import AfeSaturation, SensorDropout, StuckAdcCode
from repro.platform import (
    GyroPlatform,
    GyroSimulationResult,
    canonical_bytes,
    content_digest,
)
from repro.scenarios import (
    Campaign,
    LaneOutcome,
    Scenario,
    ScenarioOutcome,
    rate_table_scenarios,
    settled_output_scenario,
)
from repro.scenarios.executor import LaneSource
from repro.sensors import Environment
from repro.store import (
    STORE_SCHEMA,
    ResultStore,
    lane_key,
    miss_set_digest,
)
from repro.store.store import TRACE_BLOCK_BYTES, encode_lane

TRACE_FIELDS = (
    "time_s", "true_rate_dps", "temperature_c", "rate_output_dps",
    "rate_output_v", "amplitude_control", "amplitude_error", "phase_error",
    "vco_control", "pll_locked", "running")


def assert_campaigns_identical(a, b):
    """Bit-identical traces, metrics and bookkeeping (platforms aside)."""
    assert len(a.lanes) == len(b.lanes)
    for lane_a, lane_b in zip(a.lanes, b.lanes):
        assert len(lane_a.outcomes) == len(lane_b.outcomes)
        for oa, ob in zip(lane_a.outcomes, lane_b.outcomes):
            assert oa.metrics == ob.metrics
            assert oa.stopped_early == ob.stopped_early
            assert oa.elapsed_s == ob.elapsed_s
            for field in TRACE_FIELDS:
                assert np.array_equal(getattr(oa.result, field),
                                      getattr(ob.result, field)), field


@pytest.fixture(scope="module")
def started_platform():
    platform = GyroPlatform()
    platform.start()
    return platform


def make_campaign():
    return Campaign(rate_table_scenarios([0.0, 30.0], settle_s=0.02),
                    name="store-camp")


def forbid_simulation(monkeypatch):
    """Make any in-process lane execution fail the test loudly."""
    def boom(*args, **kwargs):
        raise AssertionError("simulated despite a warm store")
    monkeypatch.setattr("repro.scenarios.executor._execute_lanes", boom)


ENTRY_SECTIONS = ("header", "metadata", "payload", "traces", "config")


def rewrite_entry(path, section, edit, reseal=False):
    """Replace one section of a stored entry with ``edit(section)``.

    ``edit`` receives the parsed JSON of the header, metadata or payload
    line, or the raw bytes of the trace block or the replay config, and
    returns the new value.  ``reseal`` recomputes the header's SHA-256
    over the edited body, so the entry verifies again and only
    re-simulation can tell.
    """
    with open(path, "rb") as fh:
        header, metadata, payload, tail = fh.read().split(b"\n", 3)
    size = json.loads(payload)[TRACE_BLOCK_BYTES]
    sections = [header, metadata, payload, tail[:size], tail[size:]]
    i = ENTRY_SECTIONS.index(section)
    sections[i] = (edit(sections[i]) if section in ("traces", "config")
                   else canonical_bytes(edit(json.loads(sections[i]))))
    body = b"\n".join(sections[1:3]) + b"\n" + b"".join(sections[3:])
    if reseal:
        header = json.loads(sections[0])
        header["sha256"] = hashlib.sha256(body).hexdigest()
        sections[0] = canonical_bytes(header)
    with open(path, "wb") as fh:
        fh.write(sections[0] + b"\n" + body)


def bump_first_metric(payload):
    """Payload edit: add 1.0 to the first metric of the first outcome."""
    metrics = payload["outcomes"][0]["metrics"]
    metrics[sorted(metrics)[0]] += 1.0
    return payload


# ---------------------------------------------------------------------------
# cold / warm serving
# ---------------------------------------------------------------------------

class TestServing:
    def test_cold_run_matches_plain_and_populates(self, started_platform,
                                                  tmp_path):
        camp = make_campaign()
        plain = camp.run(copy.deepcopy(started_platform))
        store = ResultStore(str(tmp_path / "store"))
        cold = camp.run(copy.deepcopy(started_platform), store=store)
        assert_campaigns_identical(plain, cold)
        assert cold.complete
        assert store.stats.misses == 2 and store.stats.puts == 2
        assert len(store) == 2

    def test_warm_run_serves_with_zero_simulation(self, started_platform,
                                                  tmp_path, monkeypatch):
        camp = make_campaign()
        store = ResultStore(str(tmp_path / "store"))
        cold = camp.run(copy.deepcopy(started_platform), store=store)
        forbid_simulation(monkeypatch)
        warm = camp.run(copy.deepcopy(started_platform), store=store)
        assert_campaigns_identical(cold, warm)
        assert store.stats.hits == 2 and store.stats.puts == 2
        # served lanes carry no platform: the store persists results,
        # not live simulator objects
        assert all(lane.platform is None for lane in warm.lanes)

    def test_warm_run_on_sharded_executor_hits(self, started_platform,
                                               tmp_path, monkeypatch):
        # the executor is provenance, not identity: a store populated by
        # the local executor serves a sharded run of the same campaign
        camp = make_campaign()
        store = ResultStore(str(tmp_path / "store"))
        local = camp.run(copy.deepcopy(started_platform), store=store)
        forbid_simulation(monkeypatch)
        warm = camp.run(copy.deepcopy(started_platform), store=store,
                        workers=2, manifest_dir=str(tmp_path / "manifest"))
        assert_campaigns_identical(local, warm)
        assert store.stats.hits == 2
        # all lanes hit, so no miss-set manifest directory was created
        assert not os.path.exists(str(tmp_path / "manifest"))

    def test_partial_miss_simulates_only_missing_lane(self, started_platform,
                                                      tmp_path):
        camp = make_campaign()
        store = ResultStore(str(tmp_path / "store"))
        cold = camp.run(copy.deepcopy(started_platform), store=store)
        key = store.keys()[0]
        os.remove(store.entry_path(key))
        again = camp.run(copy.deepcopy(started_platform), store=store)
        assert_campaigns_identical(cold, again)
        assert store.stats.hits == 1          # the surviving lane
        assert store.stats.puts == 3          # 2 cold + 1 refill
        assert key in store

    def test_changed_scenario_is_a_miss(self, started_platform, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        make_campaign().run(copy.deepcopy(started_platform), store=store)
        changed = Campaign(rate_table_scenarios([0.0, 31.0], settle_s=0.02),
                           name="store-camp")
        changed.run(copy.deepcopy(started_platform), store=store)
        assert store.stats.hits == 1          # the unchanged 0.0 lane
        assert store.stats.puts == 3
        assert len(store) == 3

    def test_cold_misses_never_deep_copy_a_platform(
            self, started_platform, tmp_path, forbid_platform_deepcopy):
        camp = make_campaign()
        base = pickle.loads(pickle.dumps(started_platform))
        plain = camp.run(base)
        store = ResultStore(str(tmp_path / "store"))
        cold = camp.run(base, store=store)
        assert_campaigns_identical(plain, cold)
        assert store.stats.misses == 2 and store.stats.puts == 2

    def test_schema_mismatch_refused(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(str(root))
        with open(root / "store.json", "w") as fh:
            json.dump({"schema": 99}, fh)
        with pytest.raises(StoreError, match="schema"):
            ResultStore(str(root))


# ---------------------------------------------------------------------------
# one snapshot: a platform= base is pickled once per Campaign.run
# ---------------------------------------------------------------------------

def count_pickles(monkeypatch, platform) -> list:
    """Record every ``__reduce_ex__`` call on ``platform`` itself."""
    calls = []
    original = GyroPlatform.__reduce_ex__

    def reduce_ex(self, protocol):
        if self is platform:
            calls.append(protocol)
        return original(self, protocol)

    monkeypatch.setattr(GyroPlatform, "__reduce_ex__", reduce_ex)
    return calls


class TestOneSnapshot:
    @pytest.mark.parametrize("path", ["local", "sharded", "store-cold",
                                      "store-warm"])
    def test_base_is_pickled_once_per_run(self, started_platform, tmp_path,
                                          monkeypatch, path):
        rates = [-150.0 + 20.0 * i for i in range(16)]
        camp = Campaign(rate_table_scenarios(rates, settle_s=0.005),
                        name="snapshot")
        base = copy.deepcopy(started_platform)
        store = ResultStore(str(tmp_path / "store"))
        sharded = {"workers": 2, "manifest_dir": str(tmp_path / "manifest")}
        kwargs = {"local": {}, "sharded": sharded,
                  "store-cold": dict(sharded, store=store),
                  "store-warm": {"store": store}}[path]
        if path == "store-warm":
            camp.run(base, store=store)
        calls = count_pickles(monkeypatch, base)
        assert camp.run(base, **kwargs).complete
        assert len(calls) == 1
        if path == "store-warm":
            assert store.stats.hits == 16

    def test_unpicklable_base_raises_one_error_on_every_path(self,
                                                             tmp_path):
        base = GyroPlatform()
        base.hook = lambda: None
        camp = make_campaign()
        store = ResultStore(str(tmp_path / "store"))
        messages = set()
        for kwargs in ({}, {"workers": 2,
                            "manifest_dir": str(tmp_path / "manifest")},
                       {"store": store}):
            with pytest.raises(ConfigurationError,
                               match="must be picklable") as info:
                camp.run(base, **kwargs)
            messages.add(str(info.value))
        assert len(messages) == 1
        assert not (tmp_path / "manifest").exists() and len(store) == 0


# ---------------------------------------------------------------------------
# quarantine: corruption degrades to a miss, never to a wrong result
# ---------------------------------------------------------------------------

class TestQuarantine:
    def _cold_store(self, started_platform, root):
        camp = make_campaign()
        store = ResultStore(str(root))
        cold = camp.run(copy.deepcopy(started_platform), store=store)
        return camp, store, cold

    def test_flipped_byte_in_every_entry_heals_bit_identically(
            self, started_platform, tmp_path):
        # the acceptance lock: flip one byte in each stored entry (at
        # different offsets, so different envelope fields take the hit);
        # every entry quarantines and transparently re-simulates to a
        # bit-identical result
        camp, store, cold = self._cold_store(started_platform,
                                             tmp_path / "store")
        for n, key in enumerate(store.keys()):
            path = store.entry_path(key)
            with open(path, "rb") as fh:
                blob = bytearray(fh.read())
            blob[(len(blob) * (n + 1)) // 3] ^= 0x01
            with open(path, "wb") as fh:
                fh.write(bytes(blob))
        healed = camp.run(copy.deepcopy(started_platform), store=store)
        assert_campaigns_identical(cold, healed)
        assert store.stats.quarantined == 2
        assert store.stats.puts == 4          # both lanes re-simulated
        assert len(store.quarantined()) == 2
        # the healed entries now verify again
        for key in store.keys():
            assert store.get(key) is not None

    def test_truncated_entry_is_quarantined_miss(self, started_platform,
                                                 tmp_path):
        _, store, _ = self._cold_store(started_platform, tmp_path / "store")
        key = store.keys()[0]
        path = store.entry_path(key)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
        assert store.get(key) is None
        records = store.quarantined()
        assert len(records) == 1
        assert records[0]["key"] == key
        assert records[0]["reason"] == "checksum"
        assert not os.path.exists(path)       # moved aside, not left behind

    def test_metadata_tamper_is_checksum(self, started_platform, tmp_path):
        # provenance metadata is covered by the same header hash as the
        # payload and the replay config
        _, store, _ = self._cold_store(started_platform, tmp_path / "store")
        key = store.keys()[0]
        rewrite_entry(
            store.entry_path(key), "metadata",
            lambda meta: dict(meta, created_unix=meta["created_unix"] + 1.0))
        assert store.get(key) is None
        assert store.quarantined()[0]["reason"] == "checksum"

    def test_payload_tamper_is_checksum(self, started_platform, tmp_path):
        _, store, _ = self._cold_store(started_platform, tmp_path / "store")
        key = store.keys()[0]
        rewrite_entry(store.entry_path(key), "payload", bump_first_metric)
        assert store.get(key) is None
        assert store.quarantined()[0]["reason"] == "checksum"

    def test_schema_version_entry_quarantined(self, started_platform,
                                              tmp_path):
        _, store, _ = self._cold_store(started_platform, tmp_path / "store")
        key = store.keys()[0]
        rewrite_entry(store.entry_path(key), "header",
                      lambda header: dict(header, schema=STORE_SCHEMA + 1))
        assert store.get(key) is None
        assert store.quarantined()[0]["reason"] == "schema-version"

    def test_key_mismatch_quarantined(self, started_platform, tmp_path):
        _, store, _ = self._cold_store(started_platform, tmp_path / "store")
        key_a, key_b = store.keys()
        shutil.copy(store.entry_path(key_a), store.entry_path(key_b))
        assert store.get(key_b) is None
        assert store.quarantined()[0]["reason"] == "key-mismatch"

    def test_quarantine_never_overwrites(self, started_platform, tmp_path):
        camp, store, _ = self._cold_store(started_platform,
                                          tmp_path / "store")
        key = store.keys()[0]
        for _ in range(2):
            with open(store.entry_path(key), "w") as fh:
                fh.write("not json")
            assert store.get(key) is None
            camp.run(copy.deepcopy(started_platform), store=store)
        names = sorted(os.listdir(store.quarantine_dir))
        assert names == [f"{key}.json.unreadable-0",
                         f"{key}.json.unreadable-1"]

    def test_lost_quarantine_race_is_a_miss(self, started_platform, tmp_path,
                                            monkeypatch):
        # two stores share one directory; a rival quarantines a damaged
        # entry after this store read it but before this store moves it
        # aside — this store must report a plain miss, not raise, and
        # only the rival that moved the file counts it
        _, store, _ = self._cold_store(started_platform, tmp_path / "store")
        rival = ResultStore(store.directory)
        key = store.keys()[0]
        path = store.entry_path(key)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        blob[len(blob) // 2] ^= 0x01
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        verify = ResultStore._verify

        def rival_wins(*args):
            monkeypatch.setattr(ResultStore, "_verify", staticmethod(verify))
            assert rival.get(key) is None
            return verify(*args)
        monkeypatch.setattr(ResultStore, "_verify", staticmethod(rival_wins))
        misses = store.stats.misses
        assert store.get(key) is None
        assert store.stats.misses == misses + 1
        assert store.stats.quarantined == 0
        assert rival.stats.quarantined == 1
        assert len(store.quarantined()) == 1

    def test_stray_tmp_file_is_invisible(self, started_platform, tmp_path):
        # a writer killed before the atomic rename leaves only a temp
        # file; readers never see it and the next put replaces it cleanly
        _, store, _ = self._cold_store(started_platform, tmp_path / "store")
        key = store.keys()[0]
        path = store.entry_path(key)
        with open(f"{path}.tmp-99999", "wb") as fh:
            fh.write(b'{"half": ')
        assert store.get(key) is not None
        assert store.stats.quarantined == 0


# ---------------------------------------------------------------------------
# the equivalence audit
# ---------------------------------------------------------------------------

class TestAudit:
    def test_audit_verifies_sound_store(self, started_platform, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        make_campaign().run(copy.deepcopy(started_platform), store=store)
        report = store.audit()
        assert report.ok
        assert report.checked == 2
        assert sorted(report.verified_keys) == store.keys()
        assert store.stats.audited == 2

    def test_audit_sample_checks_subset(self, started_platform, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        make_campaign().run(copy.deepcopy(started_platform), store=store)
        report = store.audit(sample=1)
        assert report.ok and report.checked == 1

    def test_audit_catches_consistent_tamper_as_drift(self, started_platform,
                                                      tmp_path):
        # tamper a metric AND re-seal the header hash: the entry
        # verifies, so only re-simulation can catch it — that is
        # exactly what the audit is for
        store = ResultStore(str(tmp_path / "store"))
        make_campaign().run(copy.deepcopy(started_platform), store=store)
        key = store.keys()[0]
        rewrite_entry(store.entry_path(key), "payload", bump_first_metric,
                      reseal=True)
        assert store.get(key) is not None     # entry looks sound
        with pytest.raises(StoreIntegrityError, match="drifted"):
            store.audit()
        reasons = {r["key"]: r["reason"] for r in store.quarantined()}
        assert reasons[key] == "drift"
        # the untampered entry still audits clean
        assert store.audit().ok

    def test_audit_quarantines_unreplayable_config(self, started_platform,
                                                   tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        make_campaign().run(copy.deepcopy(started_platform), store=store)
        key = store.keys()[0]
        rewrite_entry(store.entry_path(key), "config",
                      lambda config: b"not a pickle", reseal=True)
        report = store.audit()                # reported, not raised
        assert not report.ok
        assert report.quarantined_keys == [key]
        reasons = {r["key"]: r["reason"] for r in store.quarantined()}
        assert reasons[key] == "replay-failed"


# ---------------------------------------------------------------------------
# key properties: stability and declared invariances
# ---------------------------------------------------------------------------

SCENARIO_FAULTS = [
    AfeSaturation(t_start=0.005, t_stop=0.01),
    SensorDropout(t_start=0.01, t_stop=0.02),
    StuckAdcCode(t_start=0.012, t_stop=0.018, channel="primary", code=3),
]

def _metric_mean(platform, result):
    return float(np.mean(result.rate_output_dps))

def _metric_last(platform, result):
    return float(result.rate_output_dps[-1])

def _metric_peak(platform, result):
    return float(np.max(np.abs(result.rate_output_dps)))

EXTRACTORS = [("mean", _metric_mean), ("last", _metric_last),
              ("peak", _metric_peak)]


def _faulted_scenario(faults):
    return Scenario(name="faulted", environment=Environment.still(),
                    duration_s=0.03, faults=tuple(faults))


class TestKeyProperties:
    def test_lane_key_is_content_sensitive(self):
        digests = ["d1", "d2"]
        base = lane_key("src", "compiled", digests)
        assert lane_key("src", "compiled", digests) == base
        assert lane_key("other", "compiled", digests) != base
        assert lane_key("src", "reference", digests) != base
        assert lane_key("src", "compiled", ["d2", "d1"]) != base
        assert lane_key("src", "compiled", ["d1"]) != base

    def test_miss_set_digest_order_insensitive(self):
        assert miss_set_digest(["a", "b"]) == miss_set_digest(["b", "a"])
        assert miss_set_digest(["a"]) != miss_set_digest(["a", "b"])

    @STANDARD_SETTINGS
    @given(perm=st.permutations(SCENARIO_FAULTS))
    def test_key_insensitive_to_fault_order(self, perm):
        base = _faulted_scenario(SCENARIO_FAULTS)
        other = _faulted_scenario(perm)
        assert other.digest() == base.digest()
        assert (lane_key("src", "compiled", [other.digest()])
                == lane_key("src", "compiled", [base.digest()]))

    @STANDARD_SETTINGS
    @given(perm=st.permutations(EXTRACTORS))
    def test_key_insensitive_to_extractor_insertion_order(self, perm):
        base = Scenario(name="metrics", environment=Environment.still(),
                        duration_s=0.02, extractors=dict(EXTRACTORS))
        other = Scenario(name="metrics", environment=Environment.still(),
                         duration_s=0.02, extractors=dict(perm))
        assert other.digest() == base.digest()

    @SLOW_SETTINGS
    @given(rate=st.floats(-300.0, 300.0, allow_nan=False),
           settle=st.floats(0.01, 0.5))
    def test_scenario_digest_survives_pickle(self, rate, settle):
        scenario = settled_output_scenario(rate, settle_s=settle)
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone.digest() == scenario.digest()

    def test_source_digest_survives_pickle_round_trip(self,
                                                      started_platform):
        # a started platform restored from its pickle re-pickles to
        # other bytes; the digest normalises them, in both source modes
        restored = pickle.loads(pickle.dumps(started_platform))
        shared = [LaneSource.resolve(platform, None, 1).lane_digests(1)
                  for platform in (started_platform, restored)]
        assert shared[0] == shared[1]
        own = LaneSource.resolve(None, [started_platform, restored],
                                 2).lane_digests(2)
        assert own[0] == own[1]

    #: Lane keys of a fresh platform, a started one (noise streams
    #: mid-stream) and a started one left mid-block by a reference
    #: segment; run in-process and as a script in a new process.
    LANE_KEYS_SCRIPT = (
        "from repro.platform import GyroPlatform\n"
        "from repro.scenarios import settled_output_scenario\n"
        "from repro.scenarios.executor import LaneSource\n"
        "from repro.sensors import Environment\n"
        "from repro.store import lane_key\n"
        "def lane_keys():\n"
        "    scenario = settled_output_scenario(25.0, settle_s=0.05)\n"
        "    def key(platform):\n"
        "        source = LaneSource.resolve(platform, None, 1)\n"
        "        return lane_key(source.lane_digests(1)[0], 'compiled',"
        " [scenario.digest()])\n"
        "    platform = GyroPlatform()\n"
        "    keys = [key(platform)]\n"
        "    platform.start()\n"
        "    keys.append(key(platform))\n"
        "    platform.run(Environment.still(), 0.001, engine='reference')\n"
        "    keys.append(key(platform))\n"
        "    return keys\n"
        "if __name__ == '__main__':\n"
        "    print(*lane_keys())\n")

    def test_lane_key_stable_across_process_restart(self):
        # every key is stable, so no pickled noise generator may carry
        # fresh entropy (NumPy pickles a bit generator's seed sequence)
        namespace = {"__name__": "lane_keys"}
        exec(self.LANE_KEYS_SCRIPT, namespace)
        keys = namespace["lane_keys"]()
        assert len(set(keys)) == 3
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__)),
             env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        out = subprocess.run([sys.executable, "-c", self.LANE_KEYS_SCRIPT],
                             env=env, capture_output=True, text=True,
                             check=True)
        assert out.stdout.split() == keys


# ---------------------------------------------------------------------------
# the schema-3 entry format: JSON skeleton plus raw trace sections
# ---------------------------------------------------------------------------

#: Doubles the trace block must carry bit for bit: signed zeros, NaN,
#: infinities, subnormals and the extremes.
SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf,
                                  5e-324, -2.2e-308, 1.7976931348623157e308])
TRACE_FLOATS = SPECIAL_FLOATS | st.floats(allow_nan=True, allow_infinity=True)
SCALAR_FLOATS = st.none() | st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def scenario_outcomes(draw):
    """A ScenarioOutcome with arbitrary traces of one drawn length."""
    n = draw(st.integers(0, 6))
    floats = st.lists(TRACE_FLOATS, min_size=n, max_size=n).map(
        lambda values: np.array(values, dtype=np.float64))
    bools = st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda values: np.array(values, dtype=bool))
    traces = {name: draw(bools if name in ("pll_locked", "running")
                         else floats)
              for name in TRACE_FIELDS}
    waveforms = draw(st.booleans())
    result = GyroSimulationResult(
        sample_rate_hz=draw(st.floats(1.0, 1e6)),
        primary_pickoff_norm=draw(floats) if waveforms else None,
        drive_word=draw(floats) if waveforms else None,
        turn_on_time_s=draw(SCALAR_FLOATS),
        safe_mode=draw(st.none() | st.booleans()),
        safe_mode_events=draw(st.none() | st.integers(0, 9)),
        safe_mode_entry_s=draw(SCALAR_FLOATS),
        overload_time_s=draw(SCALAR_FLOATS),
        **traces)
    scenario = Scenario(name=draw(st.text(max_size=8)),
                        environment=Environment.still(),
                        duration_s=draw(st.floats(1e-3, 10.0)))
    metrics = draw(st.dictionaries(st.text(max_size=6), TRACE_FLOATS,
                                   max_size=3))
    return ScenarioOutcome(scenario=scenario, result=result, metrics=metrics,
                           stopped_early=draw(st.booleans()),
                           elapsed_s=draw(st.floats(0.0, 10.0)))


class TestEntryFormat:
    @DETERMINISM_SETTINGS
    @given(outcomes=st.lists(scenario_outcomes(), max_size=3))
    def test_encoding_round_trips_bit_exact(self, outcomes):
        lane = LaneOutcome(platform=None, outcomes=outcomes)
        payload, traces = encode_lane(lane)
        assert encode_lane(lane) == (payload, traces)   # deterministic
        back = LaneOutcome.from_dict(json.loads(payload), traces)
        assert content_digest(back.to_dict()) == content_digest(lane.to_dict())
        assert encode_lane(back) == (payload, traces)
        for original, decoded in zip(outcomes, back.outcomes):
            for name in TRACE_FIELDS + ("primary_pickoff_norm", "drive_word"):
                a = getattr(original.result, name)
                b = getattr(decoded.result, name)
                if a is None:
                    assert b is None
                    continue
                # the float64 bits themselves (NaN payloads included),
                # in a writable array of the trace's own dtype
                assert b.dtype == a.dtype and b.tobytes() == a.tobytes()
                assert b.flags.writeable

    def test_started_platform_entry_stays_small(self, started_platform,
                                                tmp_path):
        # a started platform's replay pickle carries its noise streams'
        # positions, not their pre-drawn blocks
        store = ResultStore(str(tmp_path / "store"))
        make_campaign().run(copy.deepcopy(started_platform), store=store)
        sizes = [os.path.getsize(store.entry_path(key))
                 for key in store.keys()]
        assert len(sizes) == 2 and max(sizes) <= 64 * 1024


# ---------------------------------------------------------------------------
# kill-during-write: truncation at every offset (satellite property)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sealed_entry(started_platform, tmp_path_factory):
    """One valid on-disk entry: (key, file bytes, expected payload)."""
    root = tmp_path_factory.mktemp("sealed")
    store = ResultStore(str(root / "store"))
    camp = Campaign([settled_output_scenario(20.0, settle_s=0.02)],
                    name="sealed")
    camp.run(GyroPlatform(), store=store)
    [key] = store.keys()
    with open(store.entry_path(key), "rb") as fh:
        blob = fh.read()
    lane = store.get(key)
    return key, blob, lane.to_dict()


class TestKillDuringWrite:
    @SLOW_SETTINGS
    @given(frac=st.floats(0.0, 1.0))
    def test_truncation_never_readable_but_wrong(self, sealed_entry, frac):
        # a kill at any instant of a non-atomic write would leave a
        # prefix of the entry; whatever the cut point, the store must
        # return either the exact stored result or a miss — never a
        # readable-but-wrong entry
        key, blob, payload = sealed_entry
        cut = min(len(blob), int(frac * (len(blob) + 1)))
        root = tempfile.mkdtemp(prefix="repro-store-trunc-")
        try:
            store = ResultStore(root)
            path = store.entry_path(key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(blob[:cut])
            lane = store.get(key)
            if cut == len(blob):
                assert lane is not None
                assert lane.to_dict() == payload
            else:
                assert lane is None
        finally:
            shutil.rmtree(root, ignore_errors=True)

    @SLOW_SETTINGS
    @given(frac=st.floats(0.0, 1.0), flip=st.integers(1, 255))
    # one flip inside each section: header, metadata, payload, traces,
    # config
    @example(frac=0.002, flip=1)
    @example(frac=0.007, flip=1)
    @example(frac=0.03, flip=1)
    @example(frac=0.3, flip=1)
    @example(frac=0.8, flip=1)
    def test_flipped_byte_never_readable_but_wrong(self, sealed_entry,
                                                   frac, flip):
        # bitrot anywhere in the file — header, provenance metadata,
        # payload or replay config — must degrade to a miss or leave the
        # entry bit-identical, never corrupt a read
        key, blob, payload = sealed_entry
        damaged = bytearray(blob)
        damaged[min(len(blob) - 1, int(frac * len(blob)))] ^= flip
        root = tempfile.mkdtemp(prefix="repro-store-flip-")
        try:
            store = ResultStore(root)
            path = store.entry_path(key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(bytes(damaged))
            lane = store.get(key)
            assert lane is None or lane.to_dict() == payload
        finally:
            shutil.rmtree(root, ignore_errors=True)


# ---------------------------------------------------------------------------
# store + sharded executor: failure quarantine and self-healing resume
# ---------------------------------------------------------------------------

class TestStoreBackedResume:
    def test_failed_shard_reported_then_healed(self, started_platform,
                                               tmp_path):
        camp = make_campaign()
        store = ResultStore(str(tmp_path / "store"))
        manifest_dir = str(tmp_path / "manifest")
        partial = camp.run(copy.deepcopy(started_platform), store=store,
                           workers=2, shard_size=1,
                           manifest_dir=manifest_dir,
                           retry=RetryPolicy(max_attempts=1),
                           chaos=ChaosPlan([WorkerError(
                               shard=1, attempt=None,
                               message="injected persistent fault")]))
        # the healthy lane was stored; the poisoned one is reported
        # against its ORIGINAL campaign lane index
        assert not partial.complete
        assert partial.failed_lane_indices() == [1]
        assert len(partial.failed_shards) == 1
        assert partial.failed_shards[0]["lane_indices"] == [1]
        assert len(store) == 1
        # the miss-set manifest landed in a subdirectory named after
        # exactly which lanes missed
        subdirs = os.listdir(manifest_dir)
        assert len(subdirs) == 1 and subdirs[0].startswith("miss-")

        # resume without the fault: the stored lane is a hit, only the
        # failed lane simulates, and the result matches a plain run
        healed = camp.run(copy.deepcopy(started_platform), store=store,
                          workers=2, shard_size=1,
                          manifest_dir=manifest_dir)
        assert healed.complete
        plain = camp.run(copy.deepcopy(started_platform))
        assert_campaigns_identical(plain, healed)
        assert store.stats.hits == 1 and len(store) == 2
        # the second miss set (lane 1 only) got its own manifest dir
        assert len(os.listdir(manifest_dir)) == 2


# ---------------------------------------------------------------------------
# chaos-injected durability: ENOSPC and kill-mid-rename on the write path
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def store_put_args(started_platform, tmp_path_factory):
    """A verified entry's put() arguments, harvested from a cold run."""
    root = tmp_path_factory.mktemp("chaos-seed")
    store = ResultStore(str(root / "store"))
    camp = Campaign([settled_output_scenario(10.0, settle_s=0.02)],
                    name="chaos-store")
    camp.run(copy.deepcopy(started_platform), store=store)
    [key] = store.keys()
    entry = store.load_entry(key)
    provenance = dict(campaign=entry.campaign, engine=entry.engine,
                      executor=entry.executor,
                      source_digest=entry.source_digest)
    return key, entry.lane_outcome(), entry.config, provenance


class TestChaosDurability:
    @staticmethod
    def _put(store, args):
        key, lane, config_blob, provenance = args
        return store.put(key, lane, config_blob=config_blob, **provenance)

    def test_transient_enospc_rides_retry_policy(self, store_put_args,
                                                 tmp_path):
        # ENOSPC that clears after two writes: the store's default
        # three-attempt policy rides it out and the entry verifies
        store = ResultStore(str(tmp_path / "s"))
        plan = ChaosPlan([Enospc(site="store.write", times=2)])
        with chaos_runtime.active(plan):
            self._put(store, store_put_args)
        key, lane = store_put_args[0], store_put_args[1]
        assert store.get(key).to_dict() == lane.to_dict()
        assert store.stats.quarantined == 0

    def test_persistent_enospc_surfaces_with_no_entry(self, store_put_args,
                                                      tmp_path):
        store = ResultStore(str(tmp_path / "s"),
                            retry=RetryPolicy(max_attempts=2))
        plan = ChaosPlan([Enospc(site="store.write")])
        with chaos_runtime.active(plan):
            with pytest.raises(OSError, match="no space left"):
                self._put(store, store_put_args)
        key, lane = store_put_args[0], store_put_args[1]
        # the failed put left nothing readable — not a partial entry
        assert key not in store
        assert store.get(key) is None
        assert store.stats.quarantined == 0
        # once the disk clears, the same put heals bit-identically
        self._put(store, store_put_args)
        assert store.get(key).to_dict() == lane.to_dict()

    def test_kill_mid_rename_never_readable_but_wrong(self, store_put_args,
                                                      tmp_path):
        # the writer dies between the fsync and the atomic rename — the
        # most dangerous instant of the durable-write dance.  The
        # canonical entry must be absent (a stray tmp file is fine:
        # readers never look at it), never readable-but-wrong, and the
        # crash must not be mistaken for a retryable I/O error.
        store = ResultStore(str(tmp_path / "s"))
        key, lane = store_put_args[0], store_put_args[1]
        with chaos_runtime.active(ChaosPlan([KillMidRename(times=1)])):
            with pytest.raises(InjectedCrash):
                self._put(store, store_put_args)
        assert key not in store
        assert store.get(key) is None
        assert store.stats.quarantined == 0
        # the "next run" re-puts and the entry comes back bit-identical
        self._put(store, store_put_args)
        assert store.get(key).to_dict() == lane.to_dict()

    def test_campaign_resume_heals_store_crash_bit_identically(
            self, started_platform, tmp_path, monkeypatch):
        camp = make_campaign()
        plain = camp.run(copy.deepcopy(started_platform))
        store = ResultStore(str(tmp_path / "store"))
        with pytest.raises(InjectedCrash):
            camp.run(copy.deepcopy(started_platform), store=store,
                     chaos=ChaosPlan([KillMidRename(times=1)]))
        healed = camp.run(copy.deepcopy(started_platform), store=store)
        assert_campaigns_identical(plain, healed)
        # the store is warm now: a third run serves with zero simulation
        forbid_simulation(monkeypatch)
        warm = camp.run(copy.deepcopy(started_platform), store=store)
        assert_campaigns_identical(plain, warm)


# ---------------------------------------------------------------------------
# warm characterisation: the serving acceptance lock
# ---------------------------------------------------------------------------

class TestWarmCharacterization:
    def test_repeat_rate_response_zero_fleet_simulation(
            self, started_platform, tmp_path, monkeypatch):
        platform = copy.deepcopy(started_platform)
        config = CharacterizationConfig(
            rate_points_dps=(-50.0, 0.0, 50.0), settle_s=0.02)
        store = ResultStore(str(tmp_path / "store"))
        char = GyroCharacterization(platform, config, store=store)
        rates, volts, dps = char.measure_rate_response()
        assert store.stats.puts == 3

        # the platform did not advance (rate-response campaigns branch),
        # so the repeat run is key-identical: every lane must be served
        # from the store without touching the fleet
        forbid_simulation(monkeypatch)
        rates2, volts2, dps2 = char.measure_rate_response()
        assert np.array_equal(rates, rates2)
        assert np.array_equal(volts, volts2)
        assert np.array_equal(dps, dps2)
        assert store.stats.hits == 3 and store.stats.puts == 3
        # and the cached sweep passes the equivalence audit
        assert store.audit(sample=2).ok
