"""Smoke test of the benchmark itself (not of qmix).

Usage (from the root of a checkout): python3 bench/smoke.py

* runs every workload at a tiny size, untraced and traced, and requires a
  correct result carrying every metric named in BENCHMARK.json with its unit;
* sends one malformed request (a non-PSD states file, which the CLI rejects
  with exit 3) and requires the harness to finish and count it as failed;
* runs the benchmark in a directory holding only BENCHMARK.json and bench/,
  where it must exit non-zero without printing a result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END_UNITS, per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines() + proc.stderr.splitlines()


def result_of(lines: list[str]) -> dict | None:
    for line in reversed(lines):
        if line.startswith("{"):
            return json.loads(line)
    return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if expected[0] != END_TO_END_UNITS or expected[1] != per_layer_units():
        problems.append("BENCHMARK.json metric names or units differ from bench/run.py")
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, lines = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", str(trace), "--tiny")
            res = result_of(lines)
            got = {k: v["unit"] for k, v in res["metrics"].items()} if res else None
            if rc != 0 or not res or not res["correct"] or res["failed"] or got != expected[trace]:
                problems.append(f"{workload} trace={trace}: rc={rc} result={res}\n"
                                + "\n".join(lines[-5:]))

    rc, lines = bench("--workload", "verify", "--seed", "7", "--seconds", "1", "--tiny",
                      "--malformed", "--trace", "0")
    res = result_of(lines)
    if rc != 0 or not res or res["correct"] or res["failed"] < 1 or set(res["metrics"]) != set(expected[0]):
        problems.append(f"malformed request: rc={rc} result={res}")
    elif not any(ln.startswith("verify fail_ratio = ") and float(ln.split()[3]) > 0 for ln in lines):
        problems.append("malformed request: fail_ratio not reported above zero")

    bare = BENCH / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(
            "_work", "results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        rc, lines = bench("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                          cwd=bare)
        if rc == 0 or result_of(lines) is not None:
            problems.append(f"bare directory: rc={rc}, expected a failure without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL:", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
