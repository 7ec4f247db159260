"""Serve one benchmark run's requests through ``qmix.cli.main`` in this process.

Usage: python3 bench/serve.py PLAN.json RESULT.json

Reads the plan written by run.py and, in order:

1. warm-up: runs request 0 once, untimed, so lazy set-up finishes;
2. timed: a closed loop with one caller, cycling through the request pool
   until the plan's seconds are up; peak RSS is read at its end;
3. repeat: re-runs every request that has run only once, untimed, so each
   request's output can be compared with a repeat of itself;
4. traced (when the plan asks): runs each of the first ``traced`` requests
   twice in a row, first plain ("paired") and then with spans installed, so
   the tracing overhead is measured on the same request at the same moment.

Each execution's exit code, time, captured stdout/stderr and traceback go to
RESULT.json.  Every run of a request passes the same ``--out`` path (reports
echo it); after each run the output file is renamed to one per execution.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import qmix.cli  # noqa: E402

from spans import Tracer  # noqa: E402


def main(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    pool = plan["pool"]
    executions: list[dict] = []

    def execute(entry: int, phase: str, tracer: Tracer | None = None) -> None:
        req = pool[entry]
        # every run of a request gets the same argv; its output is moved aside afterwards
        out = Path(plan["outdir"]) / f"e{entry}{plan['out_suffix']}"
        argv = [str(out) if a == "{out}" else a for a in req["argv"]]
        stdout, stderr = io.StringIO(), io.StringIO()
        exc = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is not None:
                tracer.request = len(executions)
                root = tracer.open("cli.main")
            t0 = perf_counter()
            try:
                rc = qmix.cli.main(argv)
            except Exception:
                rc, exc = None, traceback.format_exc()
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.close(root)
        kept = out.with_name(f"e{entry}-x{len(executions)}{plan['out_suffix']}")
        if out.exists():
            os.replace(out, kept)
        executions.append({"entry": entry, "phase": phase, "rc": rc, "dt": dt, "out": str(kept),
                           "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                           "exception": exc})

    execute(0, "warmup")
    k = 0
    t_start = perf_counter()
    while k == 0 or perf_counter() - t_start < plan["seconds"]:
        execute(k % len(pool), "timed")
        k += 1
    timed_s = perf_counter() - t_start
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    runs = [0] * len(pool)
    for e in executions:
        runs[e["entry"]] += 1
    for entry, n in enumerate(runs):
        if n == 1:
            execute(entry, "repeat")

    tracer = Tracer()
    for entry in range(plan["traced"]):
        execute(entry, "paired")
        tracer.install()
        try:
            execute(entry, "traced", tracer)
        finally:
            tracer.restore()

    Path(result_path).write_text(json.dumps({
        "executions": executions, "timed_s": timed_s, "peak_rss_kib": peak_rss_kib,
        "span_summary": tracer.summary(), "counts": tracer.counts, "spans": tracer.spans}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
