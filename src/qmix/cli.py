"""Command-line front door.

Subcommands::

    qmix synth       --config blocks.json [--out report.json] [--verify]
    qmix combine     --states states.json --params params.json --mode closed
    qmix orbit       --config weights.json --steps 1200 --out trace.csv [--mub]
    qmix epi-scan    --n 2 --functional von-neumann --samples 10000 --d 2
    qmix flat-search --attempts 120 --seed 0

JSON in, JSON/CSV out.  Every report is wrapped as
``{"format": "qmix/1", "command": ..., "report": {...}, "timing": {...}}``;
everything outside "timing" is byte-identical across runs with the same
arguments and seed.  Exit codes: 0 ok, 2 usage/config error, 3 domain
constraint violated by the inputs, 4 broken invariant (a bug).
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, suppress

import numpy as np

from ._serial import FormatError, complexes, dumps, pairs, reals
from .combine import (
    GaugeViolation,
    PDelta,
    QTriple,
    S3Coeffs,
    _balanced_q_rows,
    combine2,
    combine2_stacked,
    combine3_bruteforce,
    combine3_closed,
    combine3_closed_stacked,
    combine3_magic,
    q_from_pdelta,
    q_from_z,
    random_qtriple,  # noqa: F401  bench/spans.py wraps it at this binding
    s3_coeffs_from_phases,
    z_from_q,
)
from .groups import regular_lincomb
from .irreps import (
    BlockUnitaries,
    extract_blocks,
    flat_unitary_search,
    irreps_cyclic,
    irreps_s3,
    s3_phase_blocks,
    synthesize_coeffs,
)
from .linkage import LinkageSpec, orbit_trace, write_orbit_csv
from .states import (
    DensityMatrix,
    _bloch_rows,
    _gram_states,
    bloch_vector,
    density_spectra,
    entropy,  # noqa: F401  bench/spans.py wraps it at this binding
    get_functional,
    random_density,  # noqa: F401  bench/spans.py wraps it at this binding
)

FORMAT_TAG = "qmix/1"
MAX_CYCLIC_ORDER = 120  # the order of S5, the largest group symmetric_group builds
SCAN_CHUNK = 256  # epi-scan samples evaluated per stacked call; the report does not depend on it


class CliError(Exception):
    """Carries the exit code; message goes to stderr."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(2, f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(2, f"{path} is not valid JSON: {exc}") from exc


@contextmanager
def _writing(path: str):
    """Write an --out path atomically; failing to write it is a usage error.

    The body writes the yielded temp path, created beside the file that
    ``path`` names (symlinks followed, as open() follows them) with the mode
    open() gives a new file; it is renamed over that file on success and
    removed on failure, so a failed write leaves the old file.  No fsync:
    this guards against failed writes, not power loss.  A pipe or device
    such as /dev/stdout cannot be renamed over and is written in place.
    """
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            yield path
            return
        target = os.path.realpath(path)
        tmp = os.path.join(os.path.dirname(target), f".qmix-{secrets.token_hex(6)}.tmp")
        os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        try:
            yield tmp
            os.replace(tmp, target)
        except BaseException:
            with suppress(OSError):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise CliError(2, f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(doc: dict, out: str | None) -> None:
    text = dumps(doc)
    if out:
        with _writing(out) as tmp, open(tmp, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _s3_phases(ph) -> tuple:
    """(phi1, phi2, a, c) from {"phi1": f, "phi2": f, "a": [re, im], "c": [re, im]}."""
    if not isinstance(ph, dict):
        raise CliError(2, "'phases' must be an object with phi1, phi2, a and c")
    phi1, phi2 = (float(reals(ph.get(k), (), f"phases {k!r}")) for k in ("phi1", "phi2"))
    a, c = (complex(complexes(ph.get(k), (), f"phases {k!r}")) for k in ("a", "c"))
    return phi1, phi2, a, c


def _wrap(command: str, report: dict, elapsed: float) -> dict:
    return {"format": FORMAT_TAG, "command": command, "report": report,
            "timing": {"elapsed_s": elapsed}}


# ---------------------------------------------------------------------------
# synth


def _irreps_for(group):
    if group == "s3":
        return irreps_s3()
    if isinstance(group, str) and group[:1] == "z" and group[1:].isdecimal():
        if len(group) > 4 or not 1 <= int(group[1:]) <= MAX_CYCLIC_ORDER:
            raise CliError(2, f"cyclic group order must be between 1 and {MAX_CYCLIC_ORDER}")
        return irreps_cyclic(int(group[1:]))
    raise CliError(2, f"unknown group {group!r} (expected 's3' or 'z<n>')")


def _blocks_from_config(cfg: dict, irreps) -> BlockUnitaries:
    labels = tuple(r.label for r in irreps)
    if "blocks" in cfg:
        table = cfg["blocks"]
        if not isinstance(table, dict):
            raise CliError(2, "'blocks' must be an object mapping irrep labels to matrices")
        mats = []
        for r in irreps:
            if r.label not in table:
                raise CliError(2, f"config is missing a block for irrep {r.label!r}")
            mats.append(complexes(table[r.label], (r.dim, r.dim), f"block {r.label!r}"))
        return BlockUnitaries(tuple(mats), labels)
    if "phases" in cfg:
        ph = cfg["phases"]
        if cfg["group"] == "s3":
            return s3_phase_blocks(*_s3_phases(ph))
        t = reals(ph, (len(irreps),), "'phases'")
        return BlockUnitaries(tuple(np.exp(1j * t).reshape(-1, 1, 1)), labels)
    raise CliError(2, "config needs either 'blocks' or 'phases'")


def _cmd_synth(args) -> int:
    t0 = time.perf_counter()
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict) or "group" not in cfg:
        raise CliError(2, "config must be a JSON object with a 'group' field")
    irreps = _irreps_for(cfg["group"])
    blocks = _blocks_from_config(cfg, irreps)
    z = synthesize_coeffs(blocks, irreps)
    back = extract_blocks(z, irreps)
    roundtrip = max(float(np.abs(np.asarray(B) - np.asarray(U)).max())
                    for B, U in zip(back.blocks, blocks.blocks))
    L = regular_lincomb(z)
    residual = float(np.abs(L @ L.conj().T - np.eye(irreps.group.order)).max())
    report = {
        "group": cfg["group"],
        "order": irreps.group.order,
        "labels": [r.label for r in irreps],
        "z": pairs(z.coeffs),
        "regular_unitarity_residual": residual,
        "block_roundtrip_error": roundtrip,
    }
    _emit(_wrap("synth", report, time.perf_counter() - t0), args.out)
    if args.verify and (residual > 1e-10 or roundtrip > 1e-9):
        raise CliError(4, "synthesized coefficients failed verification")
    return 0


# ---------------------------------------------------------------------------
# combine


def _states_from_file(path: str) -> list[DensityMatrix]:
    doc = _load_json(path)
    rows = doc.get("states") if isinstance(doc, dict) else doc
    if not isinstance(rows, list):
        raise CliError(2, f"{path} must hold a list of states or {{\"states\": [...]}}")
    try:
        states = [DensityMatrix.from_json(m) for m in rows]
    except ValueError as exc:
        code = 2 if isinstance(exc, FormatError) else 3
        raise CliError(code, f"invalid state in {path}: {exc}") from exc
    if len(states) not in (2, 3):
        raise CliError(2, "need exactly 2 or 3 states")
    if len({s.dim for s in states}) != 1:
        raise CliError(2, "states must share one dimension")
    return states


def _ternary_params(doc: dict) -> tuple[QTriple | None, S3Coeffs]:
    """(q, z) from a params file; q is None when the gauge does not hold."""
    if "q" in doc:
        q = QTriple.from_json(doc["q"])
        return q, z_from_q(q)
    if "p" in doc and "deltas" in doc:
        q = q_from_pdelta(PDelta.from_json(doc))
        return q, z_from_q(q)
    if "z" in doc:
        z = S3Coeffs.from_json(doc["z"])
    elif "phases" in doc:
        z = s3_coeffs_from_phases(*_s3_phases(doc["phases"]))
    else:
        raise CliError(2, "params file needs 'q', 'p'+'deltas', 'z', or 'phases'")
    try:
        return q_from_z(z), z
    except GaugeViolation:
        return None, z


def _cmd_combine(args) -> int:
    t0 = time.perf_counter()
    states = _states_from_file(args.states)
    params = _load_json(args.params)
    if not isinstance(params, dict):
        raise CliError(2, "params file must be a JSON object")
    d = states[0].dim
    verify_diff = None
    if len(states) == 2:
        if "lambda" not in params:
            raise CliError(2, "binary combination needs a 'lambda' parameter")
        lam = float(reals(params["lambda"], (), "'lambda'"))
        sign = params.get("sign", +1)
        if isinstance(sign, bool) or sign not in (+1, -1):
            raise CliError(2, "'sign' must be +1 or -1")
        sign = int(sign)
        out = combine2(states[0], states[1], lam, sign)
        mode_info = {"lambda": lam, "sign": sign}
    else:
        q, z = _ternary_params(params)
        if args.mode == "closed" and q is None:
            raise GaugeViolation("these coefficients do not satisfy the sum-one gauge")
        evaluators = {"closed": (combine3_closed, q), "magic": (combine3_magic, z),
                      "brute": (combine3_bruteforce, z)}
        # --verify runs every mode whose coefficients exist, each once
        outs = {m: f(*states, c) for m, (f, c) in evaluators.items()
                if m == args.mode or (args.verify and c is not None)}
        out = outs[args.mode]
        mode_info = {"z": z.to_json()}
        if q is not None:
            mode_info["q"] = q.to_json()
        if args.verify:
            mats = [o.mat for o in outs.values()]
            verify_diff = float(max(np.abs(a - b).max()
                                    for i, a in enumerate(mats)
                                    for b in mats[i + 1:]))
    M = out.mat
    report = {
        "dim": d,
        "n_states": len(states),
        "mode": args.mode if len(states) == 3 else "binary",
        "params": mode_info,
        "state": pairs(M),
        "diagnostics": {
            "trace": float(np.real(np.trace(M))),
            "hermiticity_residual": float(np.abs(M - M.conj().T).max()),
            "min_eigenvalue": float(np.linalg.eigvalsh(M)[0]),
        },
    }
    if d == 2:
        report["bloch"] = list(bloch_vector(out))
        report["bloch_inputs"] = [list(bloch_vector(s)) for s in states]
    if verify_diff is not None:
        report["verify"] = {"max_mode_diff": verify_diff}
    _emit(_wrap("combine", report, time.perf_counter() - t0), args.out)
    if verify_diff is not None and verify_diff > 1e-10:
        raise CliError(4, f"combination modes disagree by {verify_diff:.3e}")
    return 0


# ---------------------------------------------------------------------------
# orbit


def _mub_columns(orbit: np.ndarray) -> dict:
    """Bloch columns of the ternary mix of the +1 states of X, Y and Z, at each (m, 3) q-row."""
    rhos = [DensityMatrix.from_bloch(*axis).mat for axis in np.eye(3)]
    out = combine3_closed_stacked(*rhos, orbit)
    density_spectra(out)
    return dict(zip(("bloch_x", "bloch_y", "bloch_z"), _bloch_rows(out).T))


def _cmd_orbit(args) -> int:
    t0 = time.perf_counter()
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict) or "p" not in cfg:
        raise CliError(2, "orbit config must contain a weight triple 'p'")
    weights = reals(cfg["p"], (3,), "'p'")
    try:
        spec, assignment = LinkageSpec.from_weights(weights)
    except ValueError as exc:
        raise CliError(2, f"bad weights: {exc}") from exc
    try:
        orbits = orbit_trace(spec, args.steps, assignment)
    except ValueError as exc:
        raise CliError(2, str(exc)) from exc
    with _writing(args.out) as tmp:
        flagged = write_orbit_csv(orbits, tmp, extra=_mub_columns if args.mub else None)
    report = {
        "weights": weights.tolist(),
        "lengths": list(spec.lengths()),
        "steps": args.steps,
        "orbits": len(orbits),
        "rows": sum(len(o) for o in orbits),
        "nested_rows": flagged,
        "csv": args.out,
        "mub_columns": bool(args.mub),
    }
    _emit(_wrap("orbit", report, time.perf_counter() - t0), None)
    return 0


# ---------------------------------------------------------------------------
# epi-scan


def _draw(n: int, d: int, seed: int, start: int, stop: int):
    """States (N, n, d, d) and parameters of samples start..stop-1.

    Sample i is drawn from SeedSequence((seed, i)) alone: n states as by
    ``random_density(d)``, then (lam, sign) for n = 2 or the q-triple of
    ``random_qtriple`` for n = 3, in the same stream.  Returns (states,
    (lam, sign)) with (N,) arrays for n = 2 and (states, q) with (N, 3)
    q-rows for n = 3.
    """
    normals, first, second = [], [], []
    for i in range(start, stop):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        normals.append(rng.normal(size=n * 2 * d * d))
        if n == 2:
            first.append(rng.uniform())
            second.append(+1 if rng.integers(2) == 0 else -1)
        else:
            first.append(rng.uniform(0, 2 * np.pi))
            second.append(rng.normal(size=4))
    states = _gram_states(np.reshape(normals, (-1, n, 2, d, d)))
    if n == 2:
        return states, (np.array(first), np.array(second))
    return states, _balanced_q_rows(np.array(first), np.reshape(second, (-1, 4)))


def _scan_gaps(n: int, d: int, fname: str, seed: int, start: int, stop: int) -> np.ndarray:
    """Concavity gaps of samples start..stop-1: entropy of the mix minus the weighted entropies.

    The outputs and inputs are checked and diagonalized in one stacked call.
    """
    states, params = _draw(n, d, seed, start, stop)
    rhos = np.moveaxis(states, 1, 0)
    if n == 2:
        lam, sign = params
        out, weights = combine2_stacked(*rhos, lam, sign), np.stack([lam, 1 - lam], axis=-1)
    else:
        out, weights = combine3_closed_stacked(*rhos, params), np.abs(params) ** 2
    spectra = density_spectra(np.concatenate([out[:, None], states], axis=1))
    values = get_functional(fname)(np.clip(spectra, 0.0, 1.0))
    return values[:, 0] - sum(weights[:, k] * values[:, k + 1] for k in range(n))


def _scan_sample(n: int, d: int, fname: str, seed: int, index: int) -> float:
    """Concavity gap of one sample, as a batch of one."""
    return float(_scan_gaps(n, d, fname, seed, index, index + 1)[0])


def _scan_range(packed) -> tuple[float, int, int]:
    n, d, fname, seed, start, stop = packed
    best, best_idx, neg = np.inf, -1, 0
    for lo in range(start, stop, SCAN_CHUNK):
        gaps = _scan_gaps(n, d, fname, seed, lo, min(lo + SCAN_CHUNK, stop))
        k = int(np.argmin(np.where(np.isnan(gaps), np.inf, gaps)))  # first minimum, NaN skipped
        if gaps[k] < best:
            best, best_idx = float(gaps[k]), lo + k
        neg += int(np.count_nonzero(gaps < 0))
    return best, best_idx, neg


def _sample_detail(n: int, d: int, seed: int, index: int) -> dict:
    """Reproduction record for one sample (used for argmin and counterexamples)."""
    states, params = _draw(n, d, seed, index, index + 1)
    detail: dict = {"sample_index": index, "seed_path": [seed, index],
                    "states": [pairs(r) for r in states[0]]}
    if n == 2:
        detail["lambda"], detail["sign"] = float(params[0][0]), int(params[1][0])
    else:
        detail["q"] = pairs(params[0])
    return detail


def _cmd_epi_scan(args) -> int:
    t0 = time.perf_counter()
    if args.d not in (2, 3, 4):
        raise CliError(2, "d must be 2, 3, or 4")
    if args.samples < 1:
        raise CliError(2, "samples must be positive")
    try:
        get_functional(args.functional)
    except KeyError as exc:
        raise CliError(2, str(exc.args[0])) from exc
    spec = (args.n, args.d, args.functional, args.seed)
    # the pool starts every worker up front, so never ask for more than can be busy
    workers = min(args.workers, args.samples, os.cpu_count() or 1)
    if workers > 1:
        bounds = np.linspace(0, args.samples, workers + 1).astype(int)
        chunks = [spec + (int(a), int(b)) for a, b in zip(bounds, bounds[1:]) if a < b]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_scan_range, chunks))
    else:
        parts = [_scan_range(spec + (0, args.samples))]
    min_gap = min(p[0] for p in parts)
    argmin = min(p[1] for p in parts if p[0] == min_gap)
    negatives = sum(p[2] for p in parts)
    # reproducibility guard: the argmin sample must recompute to the same gap
    recomputed = _scan_sample(args.n, args.d, args.functional, args.seed, argmin)
    if recomputed != min_gap:
        raise CliError(4, "argmin sample failed to reproduce from its seed")
    detail = _sample_detail(args.n, args.d, args.seed, argmin)
    report = {
        "n": args.n,
        "d": args.d,
        "functional": args.functional,
        "samples": args.samples,
        "seed": args.seed,
        "min_gap": float(min_gap),
        "negative_samples": int(negatives),
        "argmin": detail,
        "asserted": args.n == 2,
    }
    if args.n == 3 and min_gap < -1e-6:
        report["counterexample"] = detail
    _emit(_wrap("epi-scan", report, time.perf_counter() - t0), args.out)
    if args.n == 2 and min_gap < -1e-9:
        raise CliError(4, f"two-state concavity gap went negative: {min_gap:.3e}")
    return 0


# ---------------------------------------------------------------------------
# flat-search


def _cmd_flat_search(args) -> int:
    t0 = time.perf_counter()
    if args.attempts < 1:
        raise CliError(2, "attempts must be positive")
    found = flat_unitary_search(irreps_s3(), args.attempts, args.seed)
    target = 1.0 / np.sqrt(6.0)
    sols = []
    for z in found:
        sols.append({
            "z": pairs(z.coeffs),
            "flatness": float(np.abs(np.abs(z.coeffs) - target).max()),
        })
    report = {
        "attempts": args.attempts,
        "seed": args.seed,
        "found": len(sols),
        "modulus_target": target,
        "solutions": sols,
    }
    _emit(_wrap("flat-search", report, time.perf_counter() - t0), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmix",
        description="Group-algebra unitary mixing: synthesis, combination, orbits, scans.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize coefficients from per-irrep unitaries")
    p.add_argument("--config", required=True, help="JSON: group + blocks/phases")
    p.add_argument("--out", default=None, help="report path (default stdout)")
    p.add_argument("--verify", action="store_true", help="fail loudly on residuals")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("combine", help="combine 2 or 3 density matrices")
    p.add_argument("--states", required=True, help="JSON list of density matrices")
    p.add_argument("--params", required=True, help="JSON: lambda | q | p+deltas | z | phases")
    p.add_argument("--mode", default="closed", choices=["closed", "magic", "brute"])
    p.add_argument("--out", default=None)
    p.add_argument("--verify", action="store_true",
                   help="cross-check all evaluation modes to 1e-10")
    p.set_defaults(func=_cmd_combine)

    p = sub.add_parser("orbit", help="trace the fixed-weight parameter orbit to CSV")
    p.add_argument("--config", required=True, help="JSON with weight triple 'p'")
    p.add_argument("--steps", type=int, default=1200)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--mub", action="store_true",
                   help="append Bloch columns for the axis-aligned qubit example")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("epi-scan", help="Monte-Carlo scan of the concavity gap")
    p.add_argument("--n", type=int, required=True, choices=[2, 3])
    p.add_argument("--functional", default="von-neumann")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_epi_scan)

    p = sub.add_parser("flat-search", help="search for flat-modulus coefficient vectors")
    p.add_argument("--attempts", type=int, default=120)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_flat_search)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"qmix: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"qmix: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, FormatError) else 3


if __name__ == "__main__":
    sys.exit(main())
