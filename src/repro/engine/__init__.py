"""Fast co-simulation engines for the gyro conditioning platform.

Three interchangeable ways to run the same mixed-signal co-simulation:

* **reference** — the original object-oriented per-sample loop in
  :meth:`GyroPlatform.run` (one method call per block per sample).
  The behavioural ground truth.
* **compiled** (:func:`repro.engine.compiled.run_compiled`) — a kernel
  *generated* for the platform's structure (the whole sensor → AFE →
  DSP → DAC loop on local floats, fixed-point quantisers inlined,
  biquads unrolled, dead branches dropped) and JIT-compiled with numba
  when it is installed; without numba the same generated source runs as
  a plain Python kernel.  Bit-identical traces and state, and the
  default for single-platform runs.  :func:`run_compiled_fleet` runs
  heterogeneous fleets lane-by-lane with cache-sized time chunks.
* **batched** (:class:`repro.engine.batch.FleetSimulator`) — the loop
  state made array-valued over a fleet of ``B`` independent platforms
  stepped in NumPy lockstep; an order of magnitude more per-scenario
  throughput at ``B≈32``, again bit-identical per lane.

Both fast engines load and store platform state through the packed
schema of :mod:`repro.engine.state`.  ``GyroPlatform.run`` dispatches
through the engine registry (``GyroPlatformConfig.engine``); a sequence
of environments passed to ``GyroPlatform.run`` and
:class:`FleetSimulator` expose the batch axis.
"""

from .batch import FleetSimulator
from .compiled import (
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
