#!/usr/bin/env python3
"""Regenerate ``golden.json``: expected output digests of every request.

Usage, from the root of the repository::

    python3 perfbench/golden.py            # default + held-out seed, tiny size

Each workload's requests are replayed once on the ``"reference"`` engine
(the behavioural ground truth) and the digests are recorded: one
``GyroSimulationResult.digest()`` per single-platform call and one
``content_digest`` per campaign lane outcome.  Every benchmark run
compares its outputs, warm store hits included, with these.  Rerun this
only when the program's results are meant to change.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time

from run import HERE, import_program

#: (scale, seed) pairs with goldens; seeds come from spec.json.
SPEC = json.loads((HERE / "spec.json").read_text())
TARGETS = [("full", SPEC["default_seed"]), ("full", SPEC["held_out_seed"]),
           ("tiny", SPEC["default_seed"])]


def main() -> int:
    import_program()
    from workloads import WORKLOADS

    golden = {}
    with tempfile.TemporaryDirectory() as workdir:
        for scale, seed in TARGETS:
            key = f"{scale}:{seed}"
            golden[key] = {}
            for name, cls in WORKLOADS.items():
                t0 = time.perf_counter()
                golden[key][name] = cls(seed, scale,
                                        workdir).reference_digests()
                print(f"{key} {name}: {time.perf_counter() - t0:.1f} s",
                      flush=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
