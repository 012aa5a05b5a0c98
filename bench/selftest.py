"""Self-test of the benchmark, at --scale tiny.

    python3 bench/selftest.py

For each workload it checks that a --trace 0 and a --trace 1 run end with
a correct result and no failures, and print exactly the BENCHMARK.json
metrics of their kind, with their units and finite values (end-to-end
values nonzero).  It checks that two traced runs with one seed give
identical deterministic counts, and that the benchmark fails without a
result line in a directory that holds only BENCHMARK.json and the
benchmark's own files.  Exits nonzero on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that count work rather than time it; one seed must give
# the same values on every run.
DETERMINISTIC_SUFFIXES = (".calls", ".supports", ".chunk_bytes", "_instances", ".iterations",
                          ".picks", ".correct_pick_ratio")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload: str, trace: int) -> dict:
    out = run(workload, trace)
    if out.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {out.returncode}:\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{workload}: result keys {sorted(res)}")
    if not (res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1):
        raise AssertionError(f"{workload} --trace {trace}: {res['attempted']} attempted, "
                             f"{res['failed']} failed, correct={res['correct']}")
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != expected:
        raise AssertionError(f"{workload} --trace {trace}: metrics differ from BENCHMARK.json: "
                             f"missing {sorted(set(expected) - set(got))}, "
                             f"extra {sorted(set(got) - set(expected))}, or units differ")
    for name, m in res["metrics"].items():
        value = m["value"]
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            raise AssertionError(f"{workload}: {name} = {value!r} is not a finite number")
        if kind == "end_to_end" and value == 0:
            raise AssertionError(f"{workload}: end-to-end metric {name} is 0")
    return res["metrics"]


def deterministic(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items()
            if name.startswith("errors.") or name.endswith(DETERMINISTIC_SUFFIXES)}


def check_bare_directory() -> None:
    """Without the source tree the benchmark must fail and print no result."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = run("grid-noisy", 0, cwd=bare)
        if out.returncode == 0 or '"correct"' in out.stdout:
            raise AssertionError("benchmark ran without the source tree")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for w in SPEC["workloads"]:
        name = w["name"]
        result(name, 0)
        first = deterministic(result(name, 1))
        second = deterministic(result(name, 1))
        if first != second:
            diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
            raise AssertionError(f"{name}: deterministic counts differ between runs: {diff}")
        print(f"ok  {name}")
    check_bare_directory()
    print("ok  fails without the source tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
