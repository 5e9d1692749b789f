"""Registry of the interchangeable co-simulation engines.

One place knows which execution paths exist and what each is for; the
platform configuration, ``GyroPlatform.run`` and the campaign runner all
resolve engine names here instead of keeping their own string checks.

* ``"reference"`` — the object-oriented per-sample loop; the behavioural
  ground truth.  Use it when debugging a single block.
* ``"compiled"`` — a kernel *generated* for the platform's structure
  (quantisers inlined, biquads unrolled, dead branches dropped) and
  lowered to C with the system compiler, falling back to a plain
  ``exec``-compiled Python kernel when there is no compiler.
  Bit-identical to the reference chain on both backends, and the
  default.  Plans with ``overflow="error"`` formats run on the reference
  loop, because a generated kernel cannot raise.

Every engine runs a fleet the same way: :meth:`EngineSpec.run_fleet`
runs each lane through the engine's single-platform runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from ..common.exceptions import ConfigurationError

ENGINE_REFERENCE = "reference"
ENGINE_COMPILED = "compiled"


@dataclass(frozen=True)
class EngineSpec:
    """One registered co-simulation engine.

    Attributes:
        name: registry key (the value of ``GyroPlatformConfig.engine``).
        description: one-line summary for error messages and reports.
        runner: single-platform entry point
            ``runner(platform, environment, duration_s, record_waveforms)``
            returning a :class:`~repro.platform.result.GyroSimulationResult`.
    """

    name: str
    description: str
    runner: Callable

    def run(self, platform, environment, duration_s: float,
            record_waveforms: bool = False):
        """Run one platform through this engine's entry point."""
        return self.runner(platform, environment, duration_s,
                           record_waveforms)

    def run_fleet(self, platforms, environments, durations_s,
                  record_waveforms: Sequence[bool]):
        """Run each lane through :attr:`runner`; one result per lane.

        Every argument holds one entry per lane: the lane's platform,
        stimulus, duration and whether it records waveforms.  A fleet
        call is one engine call (a campaign round), so it calls
        :attr:`runner` directly: nesting :meth:`run` inside it would
        make a wrapper that times engine calls count every lane twice.
        """
        return [self.runner(platform, environment, duration_s, record)
                for platform, environment, duration_s, record in zip(
                    platforms, environments, durations_s, record_waveforms)]


def _run_reference(platform, environment, duration_s: float,
                   record_waveforms: bool = False):
    return platform._run_reference(environment, duration_s, record_waveforms)


def _run_compiled(platform, environment, duration_s: float,
                  record_waveforms: bool = False):
    from ..engine.compiled import run_compiled
    return run_compiled(platform, environment, duration_s, record_waveforms)


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
    ENGINE_COMPILED,
    description="generated specialised kernel (lowered to C with the "
                "system compiler, exec-compiled Python fallback without "
                "one; the default)",
    runner=_run_compiled))


def engine_names() -> Tuple[str, ...]:
    """Names of the registered engines."""
    return tuple(_REGISTRY)


def get_engine(name: str) -> EngineSpec:
    """Resolve an engine name, raising :class:`ConfigurationError` on miss."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown engine {name!r}; available engines: "
            f"{', '.join(sorted(_REGISTRY))}")
    return spec


def validate_engine(name: str) -> str:
    """Validate an engine name and return it unchanged."""
    get_engine(name)
    return name
