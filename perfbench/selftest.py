#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Usage, from the root of the repository::

    python3 perfbench/selftest.py

Checks, in about a minute and a half:

* ``spec.json`` documents exactly the metrics ``BENCHMARK.json`` lists;
* for every workload, a tiny-size run with tracing off and one with
  tracing on exit 0, pass the golden-digest check, and print every
  end-to-end (respectively per-layer) metric of ``BENCHMARK.json`` with
  its unit on the result line;
* a copy of the benchmark without the program exits non-zero without
  printing a result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import HERE, OUT_DIR, ROOT

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())


def run_bench(cwd, workload: str, trace: int, report=None) -> tuple:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SPEC["default_seed"]), "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny"]
    if report is not None:
        command += ["--report", str(report)]
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    return proc.returncode, proc.stdout, proc.stderr


def check_spec() -> list:
    problems = []
    for section in ("end_to_end", "per_layer"):
        listed = {m["name"] for m in BENCH[section]}
        if listed != set(SPEC[section]):
            problems.append(f"{section}: BENCHMARK.json and spec.json differ "
                            f"on {sorted(listed ^ set(SPEC[section]))}")
    return problems


def check_workload(workload: str, trace: int) -> list:
    report = OUT_DIR / f"selftest-{workload}-{trace}.json"
    code, stdout, stderr = run_bench(ROOT, workload, trace, report)
    label = f"{workload} trace={trace}"
    if code != 0:
        return [f"{label}: exit {code}\n{stdout[-2000:]}{stderr[-2000:]}"]
    result = json.loads(stdout.strip().splitlines()[-1])
    info = json.loads(report.read_text())
    report.unlink()
    problems = []
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append(f"{label}: result not correct: {result}")
    if not info["digests"].startswith("checked"):
        problems.append(f"{label}: digests {info['digests']}")
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if list(got) != [m["name"] for m in wanted]:
        problems.append(f"{label}: metrics {sorted(got)}")
    for metric in wanted:
        entry = got.get(metric["name"], {})
        if entry.get("unit") != metric["unit"] or not isinstance(
                entry.get("value"), (int, float)):
            problems.append(f"{label}: bad entry {metric['name']}: {entry}")
    return problems


def check_bare_copy() -> list:
    bare = OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, stdout, _stderr = run_bench(bare, "rate-table", 0)
    finally:
        shutil.rmtree(bare)
    if code == 0 or '"correct"' in stdout:
        return [f"bare copy: exit {code}, stdout {stdout[-500:]!r}"]
    return []


def main() -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    problems = check_spec()
    for workload in (w["name"] for w in BENCH["workloads"]):
        for trace in (0, 1):
            found = check_workload(workload, trace)
            print(f"{workload} trace={trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    problems += check_bare_copy()
    print(f"bare copy without src/: "
          f"{'fails as it should' if not problems else 'see below'}")
    for problem in problems:
        print(problem)
    print("selftest", "passed" if not problems else "FAILED")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
