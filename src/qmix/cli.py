"""Command-line front door.

Subcommands::

    qmix synth       --config blocks.json [--out report.json] [--verify]
    qmix combine     --states states.json --params params.json --mode closed
    qmix orbit       --config weights.json --steps 1200 --out trace.csv [--mub]
    qmix epi-scan    --n 2 --functional von-neumann --samples 10000 --d 2
    qmix flat-search --attempts 120 --seed 0

JSON in, JSON/CSV out.  Each ``_cmd_*`` maps parsed arguments to
``(report, failure)``; ``main`` alone times the command, wraps the report as
``{"format": "qmix/1", "command": ..., "report": {...}, "timing": {...}}``,
writes it (to ``--out`` or stdout) and then turns a failure into exit 4.
Everything outside "timing" is byte-identical across runs with the same
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
    _balanced_q_rows,
    combine2,
    combine2_bruteforce,
    combine2_stacked,
    combine3_bruteforce,
    combine3_closed,
    combine3_closed_stacked,
    combine3_magic,
    q_from_pdelta,
    q_from_z,
    random_qtriple,  # noqa: F401  bench/spans.py wraps it at this binding
    z_from_q,
)
from .groups import CoeffVector, regular_lincomb
from .irreps import (
    UNITARY_TOL,
    _S3,
    _unitarity_residual,
    extract_blocks,
    flat_unitary_search,
    irreps_cyclic,
    irreps_s3,
    s3_coeffs_from_phases,
    s3_phase_blocks,
    synthesize_coeffs,
)
from .linkage import LinkageSpec, orbit_trace, write_orbit_csv
from .states import (
    DensityMatrix,
    _bloch_rows,
    _gram_states,
    _require,
    _spectra,
    bloch_vector,
    density_spectra,
    entropy,  # noqa: F401  bench/spans.py wraps it at this binding
    get_functional,
    random_density,  # noqa: F401  bench/spans.py wraps it at this binding
)

FORMAT_TAG = "qmix/1"
MAX_CYCLIC_ORDER = 120  # the order of S5, the largest group symmetric_group builds
DRAW_BLOCK = 256  # epi-scan samples drawn from one generator; changing it changes what a seed names


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


def _s3_phases(ph) -> tuple:
    """(phi1, phi2, a, c) from {"phi1": f, "phi2": f, "a": [re, im], "c": [re, im]}."""
    if not isinstance(ph, dict):
        raise CliError(2, "'phases' must be an object with phi1, phi2, a and c")
    phi1, phi2 = (float(reals(ph.get(k), (), f"phases {k!r}")) for k in ("phi1", "phi2"))
    a, c = (complex(complexes(ph.get(k), (), f"phases {k!r}")) for k in ("a", "c"))
    return phi1, phi2, a, c


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


def _blocks_from_config(cfg: dict, irreps) -> tuple[np.ndarray, ...]:
    if "blocks" in cfg:
        table = cfg["blocks"]
        if not isinstance(table, dict):
            raise CliError(2, "'blocks' must be an object mapping irrep labels to matrices")
        mats = []
        for r in irreps:
            if r.label not in table:
                raise CliError(2, f"config is missing a block for irrep {r.label!r}")
            mats.append(complexes(table[r.label], (r.dim, r.dim), f"block {r.label!r}"))
        return tuple(mats)
    if "phases" in cfg:
        ph = cfg["phases"]
        if cfg["group"] == "s3":
            return s3_phase_blocks(*_s3_phases(ph))
        t = reals(ph, (len(irreps),), "'phases'")
        return tuple(np.exp(1j * t).reshape(-1, 1, 1))
    raise CliError(2, "config needs either 'blocks' or 'phases'")


def _cmd_synth(args) -> tuple[dict, str | None]:
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict) or "group" not in cfg:
        raise CliError(2, "config must be a JSON object with a 'group' field")
    irreps = _irreps_for(cfg["group"])
    blocks = _blocks_from_config(cfg, irreps)
    z = synthesize_coeffs(blocks, irreps)
    back = extract_blocks(z, irreps)
    roundtrip = max(float(np.abs(B - U).max()) for B, U in zip(back, blocks))
    residual = _unitarity_residual(regular_lincomb(z))
    report = {
        "group": cfg["group"],
        "order": irreps.group.order,
        "labels": [r.label for r in irreps],
        "z": pairs(z.coeffs),
        "regular_unitarity_residual": residual,
        "block_roundtrip_error": roundtrip,
    }
    if args.verify and not _require([residual, roundtrip], [UNITARY_TOL, 1e-9]):
        return report, "synthesized coefficients failed verification"
    return report, None


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


def _ternary_params(doc: dict) -> tuple[QTriple | None, CoeffVector]:
    """(q, z) from a params file; q is None when the gauge does not hold."""
    if "q" in doc or ("p" in doc and "deltas" in doc):
        q = QTriple.from_json(doc["q"]) if "q" in doc else q_from_pdelta(PDelta.from_json(doc))
        return q, z_from_q(q)
    if "z" in doc:
        z = CoeffVector(_S3, complexes(doc["z"], (6,), "z"))
    elif "phases" in doc:
        z = s3_coeffs_from_phases(*_s3_phases(doc["phases"]))
    else:
        raise CliError(2, "params file needs 'q', 'p'+'deltas', 'z', or 'phases'")
    try:
        return q_from_z(z), z
    except GaugeViolation:
        return None, z


def _cmd_combine(args) -> tuple[dict, str | None]:
    states = _states_from_file(args.states)
    params = _load_json(args.params)
    if not isinstance(params, dict):
        raise CliError(2, "params file must be a JSON object")
    d = states[0].dim
    if len(states) == 2:
        if "lambda" not in params:
            raise CliError(2, "binary combination needs a 'lambda' parameter")
        lam = float(reals(params["lambda"], (), "'lambda'"))
        sign = params.get("sign", +1)
        if isinstance(sign, bool) or sign not in (+1, -1):
            raise CliError(2, "'sign' must be +1 or -1")
        sign = int(sign)
        outs = {"binary": combine2(*states, lam, sign)}
        if args.verify:
            outs["brute"] = combine2_bruteforce(*states, lam, sign)
        out = outs["binary"]
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
        mode_info = {"z": pairs(z.coeffs)}
        if q is not None:
            mode_info["q"] = q.to_json()
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
            "min_eigenvalue": float(_spectra(M)[0]),
        },
    }
    if d == 2:
        report["bloch"] = list(bloch_vector(out))
        report["bloch_inputs"] = [list(bloch_vector(s)) for s in states]
    if args.verify:
        mats = np.array([o.mat for o in outs.values()])
        diff = float(np.abs(mats[:, None] - mats[None]).max())
        report["verify"] = {"max_mode_diff": diff}
        if not _require(diff, UNITARY_TOL):
            return report, f"combination modes disagree by {diff:.3e}"
    return report, None


# ---------------------------------------------------------------------------
# orbit


def _mub_columns(orbit: np.ndarray) -> dict:
    """Bloch columns of the ternary mix of the +1 states of X, Y and Z, at each (m, 3) q-row."""
    rhos = [DensityMatrix.from_bloch(*axis).mat for axis in np.eye(3)]
    out = combine3_closed_stacked(*rhos, orbit)
    density_spectra(out)
    return dict(zip(("bloch_x", "bloch_y", "bloch_z"), _bloch_rows(out).T))


def _cmd_orbit(args) -> tuple[dict, str | None]:
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict) or "p" not in cfg:
        raise CliError(2, "orbit config must contain a weight triple 'p'")
    weights = reals(cfg["p"], (3,), "'p'")
    spec, assignment = LinkageSpec.from_weights(weights)
    try:
        orbits = orbit_trace(spec, args.steps, assignment)
    except ValueError as exc:
        raise CliError(2, str(exc)) from exc
    with _writing(args.csv) as tmp:
        flagged = write_orbit_csv(orbits, tmp, extra=_mub_columns if args.mub else None)
    report = {
        "weights": weights.tolist(),
        "lengths": list(spec.lengths()),
        "steps": args.steps,
        "orbits": len(orbits),
        "rows": sum(len(o) for o in orbits),
        "nested_rows": flagged,
        "csv": args.csv,
        "mub_columns": bool(args.mub),
    }
    return report, None


# ---------------------------------------------------------------------------
# epi-scan


def _draw(n: int, d: int, seed: int, b: int, lo: int, hi: int):
    """States (N, n, d, d) and parameters of samples b*DRAW_BLOCK + lo..hi-1.

    Block b is drawn whole from SeedSequence((seed, b)), in this order, so a
    row never depends on which rows were asked for: normals for n states as
    by ``random_density(d)``, then uniform lam and the signs for n = 2, or
    ``random_qtriple``'s phase and normals for n = 3, mapped to q-rows by
    the S^3 chart (``combine._balanced_q_rows``).  Returns (states,
    (lam, sign)) with (N,) arrays for n = 2 and (states, q) with (N, 3)
    q-rows for n = 3.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
    normals = rng.normal(size=(DRAW_BLOCK, n * 2 * d * d))[lo:hi]
    states = _gram_states(normals.reshape(-1, n, 2, d, d))
    if n == 2:
        lam, sign = rng.uniform(size=DRAW_BLOCK), 1 - 2 * rng.integers(2, size=DRAW_BLOCK)
        return states, (lam[lo:hi], sign[lo:hi])
    phase, q_normals = rng.uniform(0, 2 * np.pi, size=DRAW_BLOCK), rng.normal(size=(DRAW_BLOCK, 4))
    return states, _balanced_q_rows(phase[lo:hi], q_normals[lo:hi])


def _gaps(n: int, fname: str, states: np.ndarray, params) -> np.ndarray:
    """Concavity gaps of drawn samples: entropy of the mix minus the weighted entropies.

    The outputs and inputs are checked and diagonalized in one stacked call.
    """
    rhos = np.moveaxis(states, 1, 0)
    if n == 2:
        lam, sign = params
        out, weights = combine2_stacked(*rhos, lam, sign), np.stack([lam, 1 - lam], axis=-1)
    else:
        out, weights = combine3_closed_stacked(*rhos, params), np.abs(params) ** 2
    spectra = density_spectra(np.concatenate([out[:, None], states], axis=1))
    values = get_functional(fname)(spectra)
    return values[:, 0] - sum(weights[:, k] * values[:, k + 1] for k in range(n))


def _scan_blocks(packed) -> tuple[float, int, int]:
    """(min gap, its sample index, negative gaps) over blocks b0..b1-1 of the first `samples`."""
    n, d, fname, seed, samples, b0, b1 = packed
    best, best_idx, neg = np.inf, -1, 0
    for b in range(b0, b1):
        start = b * DRAW_BLOCK
        gaps = _gaps(n, fname, *_draw(n, d, seed, b, 0, min(samples - start, DRAW_BLOCK)))
        k = int(np.argmin(np.where(np.isnan(gaps), np.inf, gaps)))  # first minimum, NaN skipped
        if gaps[k] < best:
            best, best_idx = float(gaps[k]), start + k
        neg += int(np.count_nonzero(gaps < 0))
    return best, best_idx, neg


def _argmin_sample(n: int, d: int, fname: str, seed: int, index: int) -> tuple[float, dict]:
    """Concavity gap and reproduction record of one sample, drawn from its block as a batch of one."""
    b, row = divmod(index, DRAW_BLOCK)
    states, params = _draw(n, d, seed, b, row, row + 1)
    detail: dict = {"sample_index": index, "seed_path": [seed, index],
                    "states": [pairs(r) for r in states[0]]}
    if n == 2:
        detail["lambda"], detail["sign"] = float(params[0][0]), int(params[1][0])
    else:
        detail["q"] = pairs(params[0])
    return float(_gaps(n, fname, states, params)[0]), detail


def _cmd_epi_scan(args) -> tuple[dict, str | None]:
    if args.d not in (2, 3, 4):
        raise CliError(2, "d must be 2, 3, or 4")
    if args.samples < 1:
        raise CliError(2, "samples must be positive")
    if args.seed < 0:
        raise CliError(2, "seed must be non-negative")
    if args.workers < 1:
        raise CliError(2, "workers must be positive")
    try:
        get_functional(args.functional)
    except KeyError as exc:
        raise CliError(2, str(exc.args[0])) from exc
    spec = (args.n, args.d, args.functional, args.seed, args.samples)
    blocks = -(-args.samples // DRAW_BLOCK)
    # whole blocks per worker; the pool starts every worker up front, so none may be idle
    workers = min(args.workers, blocks, os.cpu_count() or 1)
    ranges = [spec + (blocks * w // workers, blocks * (w + 1) // workers) for w in range(workers)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_scan_blocks, ranges))
    else:
        parts = list(map(_scan_blocks, ranges))
    min_gap = min(p[0] for p in parts)
    argmin = min(p[1] for p in parts if p[0] == min_gap)
    negatives = sum(p[2] for p in parts)
    recomputed, detail = _argmin_sample(*spec[:4], argmin) if argmin >= 0 else (None, None)
    report = {
        "n": args.n,
        "d": args.d,
        "functional": args.functional,
        "samples": args.samples,
        "seed": args.seed,
        "min_gap": float(min_gap) if detail else None,
        "negative_samples": int(negatives),
        "argmin": detail,
        "asserted": args.n == 2,
    }
    if args.n == 3 and min_gap < -1e-6:
        report["counterexample"] = detail
    if detail is None:  # every gap was NaN
        return report, "no sample gave a finite concavity gap"
    # reproducibility guard: the argmin sample must recompute to the same gap
    if recomputed != min_gap:
        return report, "argmin sample failed to reproduce from its seed"
    if args.n == 2 and not _require(-min_gap, 1e-9):
        return report, f"two-state concavity gap went negative: {min_gap:.3e}"
    return report, None


# ---------------------------------------------------------------------------
# flat-search


def _cmd_flat_search(args) -> tuple[dict, str | None]:
    if args.attempts < 1:
        raise CliError(2, "attempts must be positive")
    if args.seed < 0:
        raise CliError(2, "seed must be non-negative")
    found = flat_unitary_search(args.attempts, args.seed)
    target = 1.0 / np.sqrt(6.0)
    sols = [{"z": pairs(z.coeffs), "flatness": float(np.abs(np.abs(z.coeffs) - target).max())}
            for z in found]
    report = {
        "attempts": args.attempts,
        "seed": args.seed,
        "found": len(sols),
        "modulus_target": target,
        "solutions": sols,
    }
    return report, None


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
    p.add_argument("--out", required=True, dest="csv", metavar="OUT", help="CSV output path")
    p.add_argument("--mub", action="store_true",
                   help="append Bloch columns for the axis-aligned qubit example")
    p.set_defaults(func=_cmd_orbit, out=None)  # the report goes to stdout

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
        t0 = time.perf_counter()
        report, failure = args.func(args)
        text = dumps({"format": FORMAT_TAG, "command": args.command, "report": report,
                      "timing": {"elapsed_s": time.perf_counter() - t0}})
        if args.out:
            with _writing(args.out) as tmp, open(tmp, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if failure:
            raise CliError(4, failure)
        return 0
    except CliError as exc:
        print(f"qmix: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"qmix: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, FormatError) else 3


if __name__ == "__main__":
    sys.exit(main())
