"""Registry of the interchangeable co-simulation engines.

One place knows which execution paths exist and what each is for; the
platform configuration, ``GyroPlatform.run`` and the campaign runner all
resolve engine names here instead of keeping their own string checks.

* ``"reference"`` — the object-oriented per-sample loop; the behavioural
  ground truth.  Use it when debugging a single block.
* ``"compiled"`` — a kernel *generated* for the platform's structure
  (quantisers inlined, biquads unrolled, dead branches dropped) and
  JIT-compiled with numba when it is installed, falling back to a plain
  ``exec``-compiled Python kernel otherwise.  Bit-identical to the
  reference chain on both backends, and the default for single-platform
  runs.  Plans with ``overflow="error"`` formats run on the reference
  loop, because a generated kernel cannot raise.  It also exposes a
  fleet entry point: lanes run sequentially through their specialised
  kernels, so compiled fleets may be structurally heterogeneous and
  retire lanes early for free.
* ``"batched"`` — the NumPy lockstep fleet.  It has no scalar runner:
  campaigns (or :class:`repro.engine.FleetSimulator` directly) pack
  scenarios into its lanes.  One lockstep pass costs several compiled
  samples, so it only pays off with enough concurrent lanes (see
  ``BENCH_engine.json``); below that, running scenarios sequentially on
  the compiled kernel is faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..common.exceptions import ConfigurationError

ENGINE_REFERENCE = "reference"
ENGINE_BATCHED = "batched"
ENGINE_COMPILED = "compiled"


@dataclass(frozen=True)
class EngineSpec:
    """One registered co-simulation engine.

    Attributes:
        name: registry key (the value of ``GyroPlatformConfig.engine``).
        description: one-line summary for error messages and reports.
        runner: scalar entry point
            ``runner(platform, environment, duration_s, record_waveforms)``
            returning a :class:`~repro.platform.result.GyroSimulationResult`;
            ``None`` for fleet-only engines, which are driven through the
            campaign layer / :class:`~repro.engine.batch.FleetSimulator`.
        fleet_runner: optional fleet entry point
            ``fleet_runner(platforms, environments, durations_s,
            record_waveforms)`` returning one result per lane; engines
            that provide it can step many lanes per call (lockstep or
            specialised-kernel), and the campaign chunker drives them
            through :meth:`run_fleet` instead of per-lane :meth:`run`.
    """

    name: str
    description: str
    runner: Optional[Callable] = None
    fleet_runner: Optional[Callable] = None

    def run(self, platform, environment, duration_s: float,
            record_waveforms: bool = False):
        """Run one platform through this engine's scalar entry point."""
        if self.runner is None:
            raise ConfigurationError(
                f"engine {self.name!r} has no scalar runner; drive it "
                "through a Campaign or a FleetSimulator")
        return self.runner(platform, environment, duration_s,
                           record_waveforms)

    def run_fleet(self, platforms, environments, durations_s,
                  record_waveforms: bool = False):
        """Run a fleet of platforms through this engine's fleet entry point."""
        if self.fleet_runner is None:
            raise ConfigurationError(
                f"engine {self.name!r} has no fleet runner; run its lanes "
                "one at a time through run()")
        return self.fleet_runner(platforms, environments, durations_s,
                                 record_waveforms)


def _run_reference(platform, environment, duration_s: float,
                   record_waveforms: bool = False):
    return platform._run_reference(environment, duration_s, record_waveforms)


def _run_fleet_batched(platforms, environments, durations_s,
                       record_waveforms: bool = False):
    from ..engine.batch import FleetSimulator
    return FleetSimulator(list(platforms)).run(
        environments, durations_s, record_waveforms=record_waveforms)


def _run_compiled(platform, environment, duration_s: float,
                  record_waveforms: bool = False):
    from ..engine.compiled import run_compiled
    return run_compiled(platform, environment, duration_s, record_waveforms)


def _run_compiled_fleet(platforms, environments, durations_s,
                        record_waveforms: bool = False):
    from ..engine.compiled import run_compiled_fleet
    return run_compiled_fleet(platforms, environments, durations_s,
                              record_waveforms)


_REGISTRY: Dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec) -> None:
    """Register an engine (rejects duplicate names)."""
    if spec.name in _REGISTRY:
        raise ConfigurationError(f"engine {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec


register_engine(EngineSpec(
    ENGINE_REFERENCE,
    description="object-oriented per-sample loop (behavioural ground truth)",
    runner=_run_reference))
register_engine(EngineSpec(
    ENGINE_BATCHED,
    description="NumPy lockstep fleet (amortises the interpreter over "
                "B concurrent lanes)",
    fleet_runner=_run_fleet_batched))
register_engine(EngineSpec(
    ENGINE_COMPILED,
    description="generated specialised kernel (numba JIT when installed, "
                "exec-compiled Python fallback otherwise; the "
                "single-platform default)",
    runner=_run_compiled, fleet_runner=_run_compiled_fleet))


def engine_names(scalar_only: bool = False) -> Tuple[str, ...]:
    """Names of the registered engines (optionally scalar ones only)."""
    return tuple(name for name, spec in _REGISTRY.items()
                 if not (scalar_only and spec.runner is None))


def get_engine(name: str, scalar_only: bool = False) -> EngineSpec:
    """Resolve an engine name, raising :class:`ConfigurationError` on miss.

    Args:
        name: registry key to look up.
        scalar_only: additionally reject fleet-only engines — used by
            the single-platform entry points (``GyroPlatform.run`` and
            the platform configuration default).
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown engine {name!r}; available engines: "
            f"{', '.join(sorted(_REGISTRY))}")
    if scalar_only and spec.runner is None:
        raise ConfigurationError(
            f"engine {name!r} steps whole fleets and cannot drive a single "
            f"run; pick one of: {', '.join(sorted(engine_names(True)))}")
    return spec


def validate_engine(name: str, scalar_only: bool = False) -> str:
    """Validate an engine name and return it unchanged."""
    get_engine(name, scalar_only=scalar_only)
    return name
