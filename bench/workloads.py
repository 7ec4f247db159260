"""The four benchmark workloads: how each request is made and how its output is checked.

Each workload is a pool of requests.  Request ``i`` of workload seed ``s``
draws everything it needs (its input files and the ``--seed`` it passes to
the CLI) from ``SeedSequence((s, i))``, so the same seed gives the same
requests.  Inputs are drawn here with plain numpy, not with qmix's own
samplers, so a change to the package cannot change what the benchmark feeds
it.  ``{out}`` in an argv stands for the request's output path.

A check takes the report text, the bytes written to ``--out`` and the
request, and returns the work units the request finished; it raises
``CheckFailed`` when the output is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """The program's output for one request is wrong."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def _cli_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in values]


def _pairs_matrix(M: np.ndarray) -> list:
    return [_pairs(row) for row in M]


def random_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank density matrix G G^dag / Tr from a complex Gaussian G."""
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    M = G @ G.conj().T
    M = 0.5 * (M + M.conj().T)
    return M / np.real(np.trace(M))


def random_q(rng: np.random.Generator) -> np.ndarray:
    """Valid q-triple (sum |q|^2 = 1, sum q = 1) from a random phase and (a, c) on S^3.

    This is the balanced S3 phase family, q = (1 + w (2a, -a - sqrt3 c, -a + sqrt3 c)) / 3
    with |w| = 1 and |a|^2 + |c|^2 = 1.
    """
    w = np.exp(1j * rng.uniform(0, 2 * np.pi))
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    a, c = complex(v[0], v[1]), complex(v[2], v[3])
    r3 = math.sqrt(3.0)
    return (1 + w * np.array([2 * a, -a - r3 * c, -a + r3 * c])) / 3


class Scan:
    """Monte-Carlo entropy-gap scan of ternary combinations of qubits."""

    unit = "sample"
    sizes = {"samples": 1000}  # the CLI's default --samples
    tiny = {"samples": 20}
    pool = 16
    traced = 4
    report_on_stdout = False
    out_suffix = ".json"

    def request(self, sizes, seed, index, indir: Path):
        cli_seed = _cli_seed(_rng(seed, index))
        argv = ["epi-scan", "--n", "3", "--d", "2", "--functional", "von-neumann",
                "--samples", str(sizes["samples"]), "--seed", str(cli_seed),
                "--workers", "1", "--out", "{out}"]
        return argv, {"samples": sizes["samples"], "seed": cli_seed}

    def check(self, meta, report: dict, out: bytes) -> float:
        from qmix.combine import (QTriple, combine3_bruteforce, combine3_closed,
                                  combine3_magic, z_from_q)
        from qmix.states import DensityMatrix, entropy, get_functional

        r = report["report"]
        _require((r["n"], r["d"], r["samples"], r["seed"]) == (3, 2, meta["samples"], meta["seed"]),
                 "report does not echo the request")
        best = r["argmin"]
        _require(best["seed_path"] == [meta["seed"], best["sample_index"]]
                 and 0 <= best["sample_index"] < meta["samples"], "bad argmin seed path")
        rhos = [DensityMatrix.from_json(m) for m in best["states"]]
        q = QTriple.from_json(best["q"])
        z = z_from_q(q)
        outs = [combine3_closed(*rhos, q).mat, combine3_magic(*rhos, z).mat,
                combine3_bruteforce(*rhos, z).mat]
        spread = max(float(np.abs(a - b).max()) for i, a in enumerate(outs) for b in outs[i + 1:])
        _require(spread <= 1e-10, f"evaluators disagree on the argmin sample by {spread:.3e}")
        f = get_functional("von-neumann")
        gap = entropy(f, DensityMatrix(outs[0])) - sum(
            w * entropy(f, rho) for w, rho in zip(q.weights(), rhos))
        _require(abs(gap - r["min_gap"]) <= 1e-12,
                 f"min_gap {r['min_gap']!r} does not recompute (got {gap!r})")
        return meta["samples"]


class Orbit:
    """Four-bar-linkage orbit traces with the MUB Bloch columns."""

    unit = "row"
    sizes = {"steps": 1200}
    tiny = {"steps": 120}
    weights = ([1 / 3, 1 / 3, 1 / 3], [0.5, 0.3, 0.2], [0.6, 0.3, 0.1])
    pool = 3
    traced = 3
    report_on_stdout = True
    out_suffix = ".csv"

    def request(self, sizes, seed, index, indir: Path):
        p = self.weights[index % 3]
        cfg = indir / f"weights{index % 3}.json"
        cfg.write_text(json.dumps({"p": p}))
        argv = ["orbit", "--config", str(cfg), "--steps", str(sizes["steps"]), "--mub",
                "--out", "{out}"]
        return argv, {"p": p, "steps": sizes["steps"]}

    def check(self, meta, report: dict, out: bytes) -> float:
        from qmix.linkage import LinkageSpec, orbit_count

        r = report["report"]
        spec, _ = LinkageSpec.from_weights(meta["p"])
        _require(r["steps"] == meta["steps"] and r["mub_columns"] is True,
                 "report does not echo the request")
        _require(r["orbits"] == orbit_count(spec), f"{r['orbits']} orbits, expected {orbit_count(spec)}")
        _require(r["nested_rows"] == 12, f"{r['nested_rows']} nested rows, expected 12")
        rows = list(csv.DictReader(io.StringIO(out.decode())))
        _require(len(rows) == r["rows"], f"CSV has {len(rows)} rows, report says {r['rows']}")
        _require(len({row["orbit"] for row in rows}) == r["orbits"], "CSV orbit ids disagree")
        _require(sum(int(row["nested"]) for row in rows) == 12, "CSV nested flags disagree")
        p = np.array(meta["p"])
        worst = 0.0
        for row in rows:
            q = np.array([float(row[f"re_q{k}"]) + 1j * float(row[f"im_q{k}"]) for k in (1, 2, 3)])
            worst = max(worst, abs(q.sum() - 1), float(np.abs(np.abs(q) ** 2 - p).max()))
        _require(worst <= 1e-10, f"a row does not close (residual {worst:.3e})")
        return len(rows)


class Verify:
    """Three-way cross-check of the ternary evaluators on random d = 8 states."""

    unit = "triple"
    sizes = {"d": 8}
    tiny = {"d": 8}
    pool = 64
    traced = 16
    report_on_stdout = False
    out_suffix = ".json"

    def request(self, sizes, seed, index, indir: Path):
        rng = _rng(seed, index)
        d = sizes["d"]
        states = indir / f"states{index}.json"
        params = indir / f"params{index}.json"
        states.write_text(json.dumps(
            {"states": [_pairs_matrix(random_state(d, rng)) for _ in range(3)]}))
        params.write_text(json.dumps({"q": _pairs(random_q(rng))}))
        argv = ["combine", "--states", str(states), "--params", str(params),
                "--mode", "closed", "--verify", "--out", "{out}"]
        return argv, {"d": d}

    def check(self, meta, report: dict, out: bytes) -> float:
        r = report["report"]
        _require((r["dim"], r["n_states"]) == (meta["d"], 3), "report does not echo the request")
        diff = r["verify"]["max_mode_diff"]
        _require(diff <= 1e-10, f"evaluators disagree by {diff:.3e}")
        return 1


class Flat:
    """Constant-modulus (flat) coefficient search over S3.

    Not listed in BENCHMARK.json: attempt cost is heavy-tailed (about 8% of
    Nelder-Mead starts run to the 4000-iteration cap, ~1.8 s against a 0.08 s
    median), so the few dozen attempts a run can afford give throughput and
    tail latency that depend on the seed far more than any bound allows.  Run
    it by hand, with a fixed seed, to see the irreps synthesis and solver layers.
    """

    unit = "attempt"
    sizes = {"attempts": 2}
    tiny = {"attempts": 1}
    pool = 40
    traced = 10
    report_on_stdout = False
    out_suffix = ".json"

    def request(self, sizes, seed, index, indir: Path):
        cli_seed = _cli_seed(_rng(seed, index))
        argv = ["flat-search", "--attempts", str(sizes["attempts"]), "--seed", str(cli_seed),
                "--out", "{out}"]
        return argv, {"attempts": sizes["attempts"], "seed": cli_seed}

    def check(self, meta, report: dict, out: bytes) -> float:
        from qmix.groups import CoeffVector, regular_lincomb, symmetric_group

        r = report["report"]
        _require((r["attempts"], r["seed"]) == (meta["attempts"], meta["seed"]),
                 "report does not echo the request")
        _require(r["found"] == len(r["solutions"]) <= meta["attempts"], "bad solution count")
        s3 = symmetric_group(3)
        for sol in r["solutions"]:
            z = np.array([re + 1j * im for re, im in sol["z"]])
            flat = float(np.abs(np.abs(z) - 1 / math.sqrt(6)).max())
            _require(flat <= 1e-8, f"solution is not flat ({flat:.3e})")
            L = regular_lincomb(CoeffVector(s3, z))
            resid = float(np.abs(L @ L.conj().T - np.eye(6)).max())
            _require(resid <= 1e-10, f"solution is not unitary ({resid:.3e})")
        return meta["attempts"]


WORKLOADS = {"scan": Scan(), "orbit": Orbit(), "verify": Verify(), "flat": Flat()}


def malformed_request(indir: Path):
    """A combine request whose states file holds a non-PSD matrix; the CLI must exit 3."""
    states = indir / "non_psd_states.json"
    params = indir / "non_psd_params.json"
    bad = _pairs_matrix(np.diag([1.5, -0.5]).astype(complex))
    good = _pairs_matrix(np.eye(2, dtype=complex) / 2)
    states.write_text(json.dumps({"states": [bad, good, good]}))
    params.write_text(json.dumps({"q": [[1, 0], [0, 0], [0, 0]]}))
    return ["combine", "--states", str(states), "--params", str(params), "--out", "{out}"]
