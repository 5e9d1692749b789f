"""Fast co-simulation engines for the gyro conditioning platform.

Two interchangeable ways to run the same mixed-signal co-simulation:

* **reference** — the original object-oriented per-sample loop in
  :meth:`GyroPlatform.run` (one method call per block per sample).
  The behavioural ground truth.
* **compiled** (:func:`repro.engine.compiled.run_compiled`) — a kernel
  *generated* for the platform's structure (the whole sensor → AFE →
  DSP → DAC loop, fixed-point quantisers inlined, biquads unrolled, dead
  branches dropped) and JIT-compiled with numba when it is installed;
  without numba the same generated source runs as a plain Python
  kernel.  Bit-identical traces and state, and the default.
  :func:`run_compiled_fleet` (and its thin front
  :class:`FleetSimulator`) runs fleets of any mix of structures: groups
  of structurally equal lanes that fill a fleet step in NumPy lockstep,
  a second rendering of the same generated kernel, and the rest run
  lane by lane.

Both layouts load and store platform state through the packed schema of
:mod:`repro.engine.state`.  ``GyroPlatform.run`` dispatches through the
engine registry (``GyroPlatformConfig.engine``); a sequence of
environments passed to ``GyroPlatform.run`` and :class:`FleetSimulator`
expose the fleet axis.
"""

from .compiled import (
    FleetSimulator,
    backend_info,
    compiled_backend,
    run_compiled,
    run_compiled_fleet,
)

__all__ = [
    "FleetSimulator",
    "backend_info",
    "compiled_backend",
    "run_compiled",
    "run_compiled_fleet",
]
