"""qmix benchmark: four CLI workloads, end-to-end metrics, and a traced per-layer breakdown.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload {scan,orbit,verify,flat} --seed N --seconds S --trace {0,1}

One run:

* set-up: times fresh interpreters running ``import qmix.cli`` (median of
  several children; with ``--trace 1`` they run under ``-X importtime``);
* inputs: derives every request from ``SeedSequence((seed, index))`` and
  writes its input files to a work directory under ``bench/_work``;
* load: ``bench/serve.py`` runs the requests through ``qmix.cli.main`` in one
  child process, a closed loop with one caller and ``--workers 1`` (see that
  file for its phases);
* checks: every output is checked (bench/workloads.py), and every request's
  report outside ``timing`` (and its CSV) must be byte-identical across its
  runs, traced or not.  A non-zero exit, a traceback, a failed check or a
  mismatch fails the request.

It prints one line per metric, an ``env`` record, and last a JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The full
record (and, when traced, every span) goes to ``bench/results/``.

``--tiny`` shrinks every request and the pool (used by bench/smoke.py);
``--malformed`` makes request 0 a combine call on a non-PSD state, which the
CLI must reject with exit 3 and the harness must count as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 15
SERVE_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "units_per_s": "unit/s", "latency_p50_s": "s",
                    "latency_tail_s": "s", "peak_rss_mb": "MiB"}

SPAN_METRICS = {  # span name -> the per-unit figures reported for it
    "serial.dumps": ("busy_s",),
    "states.random_density": ("calls", "busy_s"),
    "states.entropy": ("calls", "busy_s"),
    "states.validate": ("calls", "busy_s"),
    "combine.combine3_closed": ("calls", "busy_s"),
    "combine.random_qtriple": ("busy_s",),
    "combine.combine3_bruteforce": ("busy_s",),
    "combine.combine3_magic": ("busy_s",),
    "states.tensor": ("busy_s",),
    "states.partial_trace": ("busy_s",),
    "irreps.tensor_rep": ("calls", "busy_s"),
    "linkage.orbit_trace": ("busy_s",),
    "linkage.write_orbit_csv": ("busy_s",),
}
COUNT_METRICS = {  # counter name -> unit of the per-unit figure
    "serial.dumps.bytes": "B/unit",
    "kernel.eigvalsh.calls": "count/unit",
    "combine.combine3_bruteforce.gflop": "GFLOP/unit",
    "linkage.config_deltas.calls": "count/unit",
    "linkage.write_orbit_csv.bytes": "B/unit",
    "irreps.extract_blocks.calls": "count/unit",
}
# Only the flat workload, which BENCHMARK.json does not list, moves these; they are
# printed and recorded for it but left out of the result line.
FLAT_LAYER_UNITS = {
    "irreps.flat_unitary_search.busy_s": "s/unit",
    "irreps.synthesize_coeffs.calls": "count/unit",
    "irreps.synthesize_coeffs.busy_s": "s/unit",
    "irreps.solver.nfev": "count/unit",
    "irreps.solver.nit": "count/unit",
    "irreps.flat.useful_ratio": "ratio",
}


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _import_times(stderr: str) -> tuple[float, float]:
    """(cumulative seconds of ``import qmix``, seconds of every outermost scipy import).

    ``-X importtime`` prints children before their parent, one level deeper.
    """
    rows = []
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line and "imported package" not in line:
            _, cum, name = line[len("import time:"):].split("|")
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(cum) / 1e6))
    qmix_s = next(cum for _, name, cum in rows if name == "qmix")
    scipy_s = 0.0
    for i, (depth, name, cum) in enumerate(rows):
        if name.split(".")[0] == "scipy":
            parent = next((n for d, n, _ in rows[i + 1:] if d < depth), "")
            if parent.split(".")[0] != "scipy":
                scipy_s += cum
    return qmix_s, scipy_s


def measure_setup(runs: int, importtime: bool) -> dict:
    """Median wall time of fresh ``import qmix.cli`` children (one untimed child compiles bytecode)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", "import qmix.cli"]
    times, qmix_s, scipy_s = [], [], []
    for i in range(runs + 1):
        t0 = perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        dt = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"import qmix.cli failed:\n{proc.stderr}")
        if i == 0:
            continue
        times.append(dt)
        if importtime:
            q, s = _import_times(proc.stderr)
            qmix_s.append(q)
            scipy_s.append(s)
    out = {"setup_s": statistics.median(times), "runs": times}
    if importtime:
        out["setup.import_qmix_s"] = statistics.median(qmix_s)
        out["setup.import_scipy_s"] = statistics.median(scipy_s)
    return out


def blas_info() -> dict:
    """Name and thread count of the OpenBLAS that numpy loaded (Linux only)."""
    import ctypes

    import numpy as np

    info = {"name": np.__config__.CONFIG["Build Dependencies"]["blas"]["name"], "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return info
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                info["threads"] = int(getattr(lib, sym)())
                return info
    return info


def strip_timing(text: str) -> str:
    """The report up to its top-level ``timing`` entry, which may differ between runs."""
    cut = text.rfind('\n  "timing": ')
    return text if cut < 0 else text[:cut]


def judge(executions: list, pool: list, workload) -> None:
    """Give every execution ``reasons`` (empty when it passed), ``units`` and ``report``."""
    from workloads import CheckFailed

    first_key: dict[int, tuple] = {}
    checked: dict[tuple, tuple] = {}
    for e in executions:
        e["reasons"], e["units"], e["report"] = [], 0, None
        if e["exception"]:
            e["reasons"].append("traceback: " + e["exception"].strip().splitlines()[-1])
        elif e["rc"] != 0:
            e["reasons"].append(f"exit code {e['rc']}: {e['stderr'].strip()}")
        if "Traceback" in e["stderr"]:
            e["reasons"].append("traceback on stderr")
        out = Path(e["out"])
        data = out.read_bytes() if out.exists() else b""
        text = e["stdout"] if workload.report_on_stdout else data.decode()
        key = (strip_timing(text), data if workload.report_on_stdout else b"")
        if first_key.setdefault(e["entry"], key) != key:
            e["reasons"].append("output differs from another run of the same request")
        if e["reasons"]:
            continue
        if key not in checked:
            try:
                report = json.loads(text)
                checked[key] = (workload.check(pool[e["entry"]]["meta"], report, data), report, None)
            except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
                checked[key] = (0, None, f"check failed: {type(exc).__name__}: {exc}")
        e["units"], e["report"], reason = checked[key]
        if reason:
            e["reasons"].append(reason)
    for e in executions:
        if e["reasons"]:
            e["units"] = 0


def tail_latency(latencies: list) -> tuple[float, float, int]:
    """The highest percentile with at least ten requests beyond it: (value, percentile, beyond)."""
    lat = sorted(latencies)
    n = len(lat)
    beyond = min(10, n - 1)
    return lat[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def end_to_end(executions: list, served: dict, setup: dict) -> tuple[dict, dict]:
    timed = [e for e in executions if e["phase"] == "timed"]
    latencies = [e["dt"] for e in timed]
    tail, pct, beyond = tail_latency(latencies)
    metrics = {
        "setup_s": setup["setup_s"],
        "units_per_s": sum(e["units"] for e in timed) / served["timed_s"],
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "peak_rss_mb": served["peak_rss_kib"] / 1024,
    }
    return metrics, {"timed_requests": len(timed), "tail_percentile": pct,
                     "tail_requests_beyond": beyond, "timed_s": served["timed_s"]}


def per_layer(executions: list, served: dict, setup: dict) -> dict:
    traced = [e for e in executions if e["phase"] == "traced"]
    units = sum(e["units"] for e in traced)
    per_unit = (lambda v: v / units) if units else (lambda v: 0.0)
    spans, counts = served["span_summary"], served["counts"]
    metrics = {
        "setup.import_qmix_s": setup["setup.import_qmix_s"],
        "setup.import_scipy_s": setup["setup.import_scipy_s"],
        "cli.self_s": per_unit(spans.get("cli.main", {}).get("self_s", 0.0)),
    }
    for name, fields in SPAN_METRICS.items():
        for field in fields:
            metrics[f"{name}.{field}"] = per_unit(spans.get(name, {}).get(field, 0))
    for name in COUNT_METRICS:
        metrics[name] = per_unit(counts.get(name, 0))
    brute_s = spans.get("combine.combine3_bruteforce", {}).get("busy_s", 0.0)
    metrics["combine.combine3_bruteforce.gflop_per_s"] = (
        counts.get("combine.combine3_bruteforce.gflop", 0) / brute_s if brute_s else 0.0)
    # traced / untraced rate on the same requests, each run just before its traced twin
    paired = sum(e["dt"] for e in executions if e["phase"] == "paired")
    metrics["trace.overhead_ratio"] = paired / sum(e["dt"] for e in traced)
    return metrics


def flat_layer(executions: list, served: dict) -> dict:
    """The FLAT_LAYER_UNITS figures of a traced run, per work unit."""
    units = sum(e["units"] for e in executions if e["phase"] == "traced")
    spans, counts = served["span_summary"], served["counts"]
    totals = {
        "irreps.flat_unitary_search.busy_s":
            spans.get("irreps.flat_unitary_search", {}).get("busy_s", 0.0),
        "irreps.synthesize_coeffs.calls": spans.get("irreps.synthesize_coeffs", {}).get("calls", 0),
        "irreps.synthesize_coeffs.busy_s":
            spans.get("irreps.synthesize_coeffs", {}).get("busy_s", 0.0),
        "irreps.solver.nfev": counts.get("irreps.solver.nfev", 0),
        "irreps.solver.nit": counts.get("irreps.solver.nit", 0),
    }
    metrics = {k: v / units if units else 0.0 for k, v in totals.items()}
    # distinct flat solutions over attempts, from each request's report (once per request)
    reports = {e["entry"]: e["report"]["report"] for e in executions if e["report"]}
    attempts = sum(r["attempts"] for r in reports.values())
    metrics["irreps.flat.useful_ratio"] = (
        sum(r["found"] for r in reports.values()) / attempts if attempts else 0.0)
    return metrics


def per_layer_units() -> dict:
    units = {"setup.import_qmix_s": "s", "setup.import_scipy_s": "s", "cli.self_s": "s/unit"}
    for name, fields in SPAN_METRICS.items():
        for field in fields:
            units[f"{name}.{field}"] = "count/unit" if field == "calls" else "s/unit"
    units.update(COUNT_METRICS)
    units.update({"combine.combine3_bruteforce.gflop_per_s": "GFLOP/s",
                  "trace.overhead_ratio": "ratio"})
    return units


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny requests and pool (smoke test)")
    ap.add_argument("--malformed", action="store_true",
                    help="make request 0 a non-PSD combine call (smoke test)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "qmix" / "__init__.py").is_file():
        print(f"bench: no qmix sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    import numpy as np
    import scipy

    from workloads import WORKLOADS, malformed_request

    workload = WORKLOADS[args.workload]
    setup = measure_setup(1 if args.tiny else SETUP_RUNS, importtime=bool(args.trace))

    sizes = workload.tiny if args.tiny else workload.sizes
    pool_size = min(workload.pool, 4) if args.tiny else workload.pool
    traced = min(workload.traced, pool_size) if args.trace else 0
    (BENCH / "_work").mkdir(exist_ok=True)
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        indir, outdir = work / "in", work / "out"
        indir.mkdir(parents=True)
        outdir.mkdir()
        pool = []
        for i in range(pool_size):
            argv_i, meta = workload.request(sizes, args.seed, i, indir)
            pool.append({"argv": argv_i, "meta": meta})
        if args.malformed:
            pool[0] = {"argv": malformed_request(indir), "meta": None}
        plan = {"pool": pool, "seconds": args.seconds, "traced": traced,
                "outdir": str(outdir), "out_suffix": workload.out_suffix}
        (work / "plan.json").write_text(json.dumps(plan))
        subprocess.run([sys.executable, str(BENCH / "serve.py"), str(work / "plan.json"),
                        str(work / "result.json")], env=child_env(), cwd=ROOT, check=True,
                       timeout=SERVE_TIMEOUT_S)
        served = json.loads((work / "result.json").read_text())
        executions = served["executions"]
        judge(executions, pool, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(executions)
    failed = sum(1 for e in executions if e["reasons"])
    e2e, load = end_to_end(executions, served, setup)
    e2e["fail_ratio"] = failed / attempted
    env = {
        "workload": args.workload, "workload_seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "unit": workload.unit, "request_sizes": sizes,
        "pool_requests": pool_size, "traced_requests": traced, **load,
        "attempted": attempted, "failed": failed, "setup_runs_s": setup["runs"],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_info(),
    }
    extra = {}
    if args.trace:
        metrics, units = per_layer(executions, served, setup), per_layer_units()
        if args.workload == "flat":
            extra = flat_layer(executions, served)
    else:
        metrics, units = {k: e2e[k] for k in END_TO_END_UNITS}, END_TO_END_UNITS

    record = {"env": env, "end_to_end": e2e, "metrics": {**metrics, **extra},
              "failures": [{"entry": e["entry"], "phase": e["phase"], "reasons": e["reasons"]}
                           for e in executions if e["reasons"]],
              "timed_latencies_s": [e["dt"] for e in executions if e["phase"] == "timed"],
              "spans": served["spans"]}
    (BENCH / "results").mkdir(exist_ok=True)
    (BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))

    for f in record["failures"][:5]:
        print(f"bench: request {f['entry']} ({f['phase']}) failed: {'; '.join(f['reasons'])}",
              file=sys.stderr)
    shown = {**e2e, **(metrics if args.trace else {}), **extra}
    shown_units = {**END_TO_END_UNITS, "fail_ratio": "ratio", **units, **FLAT_LAYER_UNITS}
    for name, value in shown.items():
        print(f"{args.workload} {name} = {value:.6g} {shown_units[name]}")
    print("env " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
