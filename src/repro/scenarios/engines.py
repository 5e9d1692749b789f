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
runs each lane through the engine's single-platform runner, on threads
when the engine's :attr:`~EngineSpec.settle` says the round's lanes may
run on them (large rounds of compiled C lanes at constant temperatures)
and the caller allows more than one.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..common.exceptions import ConfigurationError

ENGINE_REFERENCE = "reference"
ENGINE_COMPILED = "compiled"


@dataclass(frozen=True)
class EngineSpec:
    """One registered co-simulation engine.

    Attributes:
        name: registry key (the value of ``GyroPlatformConfig.engine``).
        runner: single-platform entry point ``runner(platform,
            environment, duration_s, record_waveforms, first_sample=0)``
            returning a :class:`~repro.platform.result.GyroSimulationResult`;
            the run reads ``environment`` at the absolute sample times
            ``(first_sample + j) * dt``.
    """

    name: str
    runner: Callable
    #: ``settle(platforms, environments, durations_s)``: readies a
    #: round's lanes to run on threads, in the calling thread, and
    #: returns whether they may (``None``: never).
    settle: Optional[Callable] = None

    def run(self, platform, environment, duration_s: float,
            record_waveforms: bool = False):
        """Run one platform through this engine's entry point."""
        return self.runner(platform, environment, duration_s,
                           record_waveforms)

    def run_fleet(self, platforms, environments, durations_s,
                  record_waveforms: Sequence[bool], threads: int = 1,
                  first_samples: Optional[Sequence[int]] = None):
        """Run each lane through :attr:`runner`; one result per lane.

        Every argument holds one entry per lane: the lane's platform,
        stimulus, duration, whether it records waveforms and the sample
        of its stimulus it starts at (its position in its scenario;
        ``None`` starts every lane at 0).  A fleet
        call is one engine call (a campaign round), so it calls
        :attr:`runner` directly: nesting :meth:`run` inside it would
        make a wrapper that times engine calls count every lane twice.

        The round runs on ``min(threads, lanes)`` threads of a pool that
        lives for this call only, when that is more than one and
        :attr:`settle` allows it; otherwise every lane runs in the
        calling thread, in lane order.  Each lane owns its platform, so
        the results are the serial ones bit for bit, and they come back
        in lane order.  Each lane runs in a copy of the caller's
        :mod:`contextvars` context (NumPy's ``errstate``, say).  When
        lanes raise, the caller sees the first failing lane's exception,
        as serially, but the lanes after it may already have run.
        """
        lanes = list(zip(platforms, environments, durations_s,
                         record_waveforms,
                         first_samples or [0] * len(platforms)))
        threads = min(threads, len(lanes))
        if (threads < 2 or self.settle is None
                or not self.settle(platforms, environments, durations_s)):
            return [self.runner(*lane) for lane in lanes]
        # imported here: a process that never threads a round (one
        # platform, say) does not load the pool's modules
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(threads) as pool:
            futures = [pool.submit(contextvars.copy_context().run,
                                   self.runner, *lane) for lane in lanes]
            return [future.result() for future in futures]


def _run_reference(platform, environment, duration_s: float,
                   record_waveforms: bool = False, first_sample: int = 0):
    return platform._run_reference(environment, duration_s, record_waveforms,
                                   first_sample)


def _run_compiled(platform, environment, duration_s: float,
                  record_waveforms: bool = False, first_sample: int = 0):
    from ..engine.compiled import run_compiled
    return run_compiled(platform, environment, duration_s, record_waveforms,
                        first_sample)


def _settle_compiled(platforms, environments, durations_s) -> bool:
    from ..engine.compiled import settle_lanes
    return settle_lanes(platforms, environments, durations_s)


_REGISTRY: Dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec) -> None:
    """Register an engine (rejects duplicate names)."""
    if spec.name in _REGISTRY:
        raise ConfigurationError(f"engine {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec


register_engine(EngineSpec(ENGINE_REFERENCE, runner=_run_reference))
register_engine(EngineSpec(ENGINE_COMPILED, runner=_run_compiled,
                           settle=_settle_compiled))


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
