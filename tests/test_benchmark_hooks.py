"""The program's entry points the benchmark in ``perfbench/`` reaches by name.

``perfbench/tracing.py`` wraps ``EngineSpec.run``, ``EngineSpec.run_fleet``,
``compiled._compile_kernel`` and the other stack layers at run time, and
``perfbench/run.py`` records provenance from ``repro.engine.backend_info()``
and ``campaign.ENGINE_BATCHED``.  These tests install and uninstall the
tracer around one traced two-lane campaign and build the provenance
record, so a renamed or re-signed hook point fails here rather than only
in the benchmark's own self-test.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import backend_info, compiled
from repro.platform import GyroPlatform
from repro.scenarios import Campaign, Scenario
from repro.scenarios.engines import EngineSpec
from repro.sensors import Environment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's ``run`` and ``tracing`` modules, imported fresh."""
    names = ("run", "tracing")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield {name: importlib.import_module(name) for name in names}
    for name in names:
        sys.modules.pop(name, None)


def test_tracer_wraps_and_restores_the_hook_points(perfbench, tmp_path,
                                                   monkeypatch):
    hooks = [(EngineSpec, "run"), (EngineSpec, "run_fleet"),
             (compiled, "_compile_kernel"), (GyroPlatform, "run")]
    originals = [vars(owner)[name] for owner, name in hooks]
    # an empty kernel table, so the traced run generates its kernel
    monkeypatch.setattr(compiled, "_KERNELS", {})
    tracer = perfbench["tracing"].Tracer("hooks", str(tmp_path))
    tracer.install()
    try:
        assert all(vars(owner)[name] is not original
                   for (owner, name), original in zip(hooks, originals))
        Campaign([Scenario("still", Environment.still(), 0.002)] * 2).run(
            GyroPlatform())
    finally:
        tracer.uninstall()
    assert all(vars(owner)[name] is original
               for (owner, name), original in zip(hooks, originals))

    spans = {}
    for span in tracer.spans:
        spans.setdefault(span[2], []).append(span)
    assert "engine.warmup" in spans
    fleet, = spans["engine.fleet"]
    assert fleet[6] == {"samples": 480, "slots": 480}
    # the fleet call runs each lane without a nested EngineSpec.run
    assert "engine.run" not in spans


def test_provenance_reads_the_engine(perfbench):
    record = perfbench["run"].provenance()
    assert record["compiled_backend"] == backend_info()
    assert record["default_scalar_engine"] == "compiled"
    assert record["default_campaign_engine"] == "compiled"


_IMPORT_BOUNDARY = """
import sys
sys.path.insert(0, sys.argv[1])
from run import import_program
import_program()
import hostspeed, tracing, workloads
from repro.platform import GyroPlatform
from repro.sensors import Environment
platform = GyroPlatform()
platform.start()
platform.run(Environment.still(), 0.01)
print(sorted(m for m in ("scipy.signal", "scipy.stats") if m in sys.modules))
from repro.scenarios.library import noise_floor_scenario
noise_floor_scenario()
print("scipy.signal" in sys.modules)
"""


def test_the_platform_path_leaves_scipy_signal_unloaded():
    # in a fresh interpreter: the benchmark's imports, a started platform
    # and a run on the default (compiled) engine load neither
    # scipy.signal nor the scipy.stats it would drag in; building a
    # noise-floor scenario loads it, for welch
    lines = subprocess.run(
        [sys.executable, "-c", _IMPORT_BOUNDARY, str(PERFBENCH)],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout.splitlines()
    assert lines == ["[]", "True"]
