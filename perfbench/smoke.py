"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke.py

For every workload: two untraced runs on different seeds and two traced runs
on one seed.  Each run must exit 0 and end with the result object carrying
exactly the metrics ``BENCHMARK.json`` names, with their units, and report
``fail_ratio=0``; the two traced runs must agree on every count metric.
Last, the benchmark is run in a directory holding only ``BENCHMARK.json``
and ``perfbench/``, where it must exit non-zero without printing a result.
Exits 1 at the first broken expectation.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_TIMEOUT_S = 180


def fail(message: str) -> None:
    print(f"smoke: FAIL {message}")
    sys.exit(1)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def result_of(workload: str, seed: int, trace: int) -> dict:
    proc = bench(workload, seed, trace)
    label = f"{workload} seed={seed} trace={trace}"
    if proc.returncode != 0:
        fail(f"{label}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{label}: result keys {sorted(result)}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        fail(f"{label}: metrics {got} differ from BENCHMARK.json {wanted}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label}: {result['failed']} of {result['attempted']} ops failed\n{proc.stderr[-3000:]}")
    if not any(line.startswith("# ops=") and " fail_ratio=0 " in line for line in lines):
        fail(f"{label}: no fail_ratio=0 report line")
    print(f"smoke: ok {label} ({result['attempted']} ops)")
    return result


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def main() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for seed in (1, 2):
            result_of(workload, seed, 0)
        first, second = (counts(result_of(workload, 3, 1)) for _ in range(2))
        if first != second:
            fail(f"{workload}: count metrics differ between traced runs: {first} vs {second}")

    lone = ROOT / ".perfbench_work" / f"lone-{os.getpid()}"
    shutil.rmtree(lone, ignore_errors=True)
    try:
        lone.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", lone)
        shutil.copytree(HERE, lone / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("calib", 1, 0, cwd=lone)
        if proc.returncode == 0 or any(line.startswith("{") for line in proc.stdout.splitlines()):
            fail("run without the package source did not fail cleanly")
        print("smoke: ok without package source, exit", proc.returncode)
    finally:
        shutil.rmtree(lone, ignore_errors=True)
    print("smoke: all passed")


if __name__ == "__main__":
    main()
