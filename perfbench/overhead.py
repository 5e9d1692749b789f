#!/usr/bin/env python3
"""Tracing overhead: traced minus untraced end-to-end metrics.

Usage, from the root of the repository::

    python3 perfbench/overhead.py [--seconds 20] [--seed 1] [--output FILE]

Runs every workload once with tracing off and once with it on, prints
the traced minus untraced value of every end-to-end metric, and checks
that both runs produced the same output digests, which shows the
wrappers change no result.  Exits 1 if any digest differs or a run fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import OUT_DIR, ROOT

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(workload: str, trace: int, seed: int, seconds: float) -> dict:
    report = OUT_DIR / f"overhead-{workload}-{trace}.json"
    subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                    workload, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace), "--report", str(report)],
                   cwd=ROOT, check=True, capture_output=True, timeout=600)
    data = json.loads(report.read_text())
    report.unlink()
    return data


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--output")
    args = parser.parse_args()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    rows = {}
    ok = True
    for workload in (w["name"] for w in BENCH["workloads"]):
        off = measure(workload, 0, args.seed, args.seconds)
        on = measure(workload, 1, args.seed, args.seconds)
        same = off["fingerprint"] == on["fingerprint"]
        ok &= same and off["correct"] and on["correct"]
        rows[workload] = {
            "same_digests": same,
            "metrics": {m["name"]: {
                "untraced": off["metrics"][m["name"]],
                "traced": on["metrics"][m["name"]],
                "traced_minus_untraced": (on["metrics"][m["name"]]
                                          - off["metrics"][m["name"]]),
                "unit": m["unit"]} for m in BENCH["end_to_end"]}}
        print(f"{workload}: digests "
              f"{'identical' if same else 'DIFFER'} traced vs untraced")
        for name, row in rows[workload]["metrics"].items():
            share = (row["traced_minus_untraced"] / row["untraced"]
                     if row["untraced"] else float("nan"))
            print(f"  {name:<14} untraced {row['untraced']:>12.5g}  "
                  f"traced {row['traced']:>12.5g}  "
                  f"diff {row['traced_minus_untraced']:>+11.4g} "
                  f"{row['unit']} ({share:+.1%})")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "provenance": off["provenance"],
                       "workloads": rows}, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
