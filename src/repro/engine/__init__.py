"""Fast co-simulation engines for the gyro conditioning platform.

Two interchangeable ways to run the same mixed-signal co-simulation:

* **reference** — the original object-oriented per-sample loop in
  :meth:`GyroPlatform.run` (one method call per block per sample).
  The behavioural ground truth.
* **compiled** (:func:`repro.engine.compiled.run_compiled`) — a kernel
  *generated* for the platform's structure (the whole sensor → AFE →
  DSP → DAC loop, fixed-point quantisers inlined, biquads unrolled, dead
  branches dropped) and lowered to C by :mod:`repro.engine.native`,
  built once per host into an on-disk cache; without a C compiler the
  same generated source runs as a plain Python kernel.  Bit-identical
  traces and state, and the default.

The compiled kernels load and store platform state through the packed
schema of :mod:`repro.engine.state`.  ``GyroPlatform.run`` dispatches
one platform through the engine registry (``GyroPlatformConfig.engine``).
Multi-lane runs are campaigns (:class:`repro.scenarios.Campaign`), whose
every lane runs on its own kernel.
"""

from .compiled import (
    backend_info,
    compiled_backend,
    run_compiled,
)

__all__ = [
    "backend_info",
    "compiled_backend",
    "run_compiled",
]
