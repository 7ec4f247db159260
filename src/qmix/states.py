"""Density matrices, tensor/partial-trace plumbing, and entropy functionals.

Everything is dense numpy at desk scale (total dimension capped at 4096).
Subsystem indices are 1-based throughout, and partial_trace takes the set
of subsystems to KEEP rather than the set to discard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ._serial import FormatError, complexes, pairs

__all__ = [
    "DensityMatrix",
    "EntropyFunctional",
    "ENTROPY_FUNCTIONALS",
    "get_functional",
    "tensor",
    "partial_trace",
    "random_density",
    "density_spectra",
    "entropy",
    "bloch_vector",
]

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-10
_PSD_TOL = -1e-9
_SIZE_CAP = 4096

class DensityMatrix:
    """Hermitian, PSD, trace-one complex matrix.

    Validation happens at construction, by ``density_spectra`` on a stack
    of one.
    """

    __slots__ = ("mat", "dim")

    def __init__(self, mat, check: bool = True):
        M = np.asarray(mat, dtype=complex)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("density matrix must be square")
        if not M.size:
            raise ValueError("density matrix must be non-empty")
        self.mat = M
        self.dim = M.shape[0]
        if check:
            density_spectra(M[None])

    @classmethod
    def pure(cls, psi) -> "DensityMatrix":
        v = np.asarray(psi, dtype=complex)
        with np.errstate(invalid="ignore", over="ignore"):  # zero, NaN and inf end as NaN
            m = np.abs(v).max(initial=0.0)  # so the norm of a huge or tiny vector is finite;
            v = v.real / m + 1j * (v.imag / m)  # part by part, as v / subnormal m is inf+nanj
            norm = np.linalg.norm(v)
        if not 0 < norm < np.inf:  # NaN fails
            raise ValueError("state vector must be finite and nonzero")
        v = v / norm
        return cls(np.outer(v, v.conj()), check=False)

    @classmethod
    def maximally_mixed(cls, d: int) -> "DensityMatrix":
        return cls(np.eye(d, dtype=complex) / d, check=False)

    @classmethod
    def from_probs(cls, p) -> "DensityMatrix":
        p = np.asarray(p, dtype=float)
        _require(-p, 0.0, "probabilities must be nonnegative and sum to 1")
        with np.errstate(over="ignore"):  # an overflowing sum is inf, which fails
            _require(abs(p.sum() - 1), _TRACE_TOL, "probabilities must be nonnegative and sum to 1")
        return cls(np.diag(p.astype(complex)), check=False)

    @classmethod
    def from_bloch(cls, x: float, y: float, z: float) -> "DensityMatrix":
        with np.errstate(over="ignore"):  # an overflowing square is inf, which fails
            _require(x * x + y * y + z * z, 1 + 1e-12, "Bloch vector must lie in the unit ball")
        return cls(_bloch_mats(np.array([x, y, z], dtype=float)), check=False)

    def purity(self) -> float:
        return float(np.real(np.trace(self.mat @ self.mat)))

    def to_json(self) -> list:
        return pairs(self.mat)

    @classmethod
    def from_json(cls, rows) -> "DensityMatrix":
        """A non-empty square matrix of [re, im] pairs; FormatError on any other shape."""
        if not isinstance(rows, list) or not rows:
            raise FormatError("density matrix must be a non-empty square list of [re, im] pairs")
        return cls(complexes(rows, (len(rows), len(rows)), "density matrix"))

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def density_spectra(M) -> np.ndarray:
    """Ascending eigenvalues of a (..., d, d) stack of density matrices.

    Raises ValueError unless every matrix is Hermitian within 1e-12, has trace (an ``einsum``,
    cheaper than ``ndarray.trace`` on small stacks) within 1e-10 of one and minimum eigenvalue
    >= -1e-9 (slack for the numerically rounded outputs of the combination maps).  NaN and
    infinite entries fail; the message quotes the first failing matrix.
    """
    M = np.asarray(M, dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):  # inf and NaN fail the checks
        herm = np.abs(M - np.conj(np.swapaxes(M, -1, -2))).max(axis=(-2, -1))
        tr = np.einsum("...ii->...", M)
    _require(herm, _HERM_TOL, "not Hermitian (residual {:.3e})")
    _require(abs(tr - 1), _TRACE_TOL, "trace is {:.12g}, not 1", quote=tr)
    lam = np.linalg.eigvalsh(M)
    _require(-lam[..., 0], -_PSD_TOL, "negative eigenvalue {:.3e}", quote=lam[..., 0])
    return lam


def _require(residual, tol, error=None, quote=None) -> bool:
    """Whether every ``residual`` is finite and within ``tol``: the package's one tolerance check.

    NaN and +-inf fail and an empty stack passes.  With ``error`` a failure raises it, built
    from the first failing entry of ``quote`` (default ``residual``): a str is the template
    of a ValueError message, anything else is called with the entry.
    """
    r = np.asarray(residual)
    ok = np.isfinite(r) & (r <= tol)
    if error is None or ok.all():
        return bool(ok.all())
    value = np.asarray(r if quote is None else quote)[~ok][0].item()
    raise ValueError(error.format(value)) if isinstance(error, str) else error(value)


def _as_matrix(rho) -> np.ndarray:
    return rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def tensor(rho_list: Sequence[DensityMatrix]) -> DensityMatrix:
    """Kronecker product of states; total dimension capped at 4096."""
    total = int(np.prod([_as_matrix(r).shape[0] for r in rho_list]))
    if total > _SIZE_CAP:
        raise ValueError(f"total dimension {total} exceeds cap {_SIZE_CAP}")
    out = np.eye(1, dtype=complex)
    for r in rho_list:
        out = np.kron(out, _as_matrix(r))
    return DensityMatrix(out, check=False)


def partial_trace(M, keep: Iterable[int], d: int, n: int) -> np.ndarray:
    """Trace out all subsystems not in ``keep`` (1-based indices).

    ``M`` is any d^n x d^n matrix over n qudits of local dimension d;
    returns a plain matrix over the kept factors, in their original
    order.  Trace-preserving by construction.
    """
    M = _as_matrix(M)
    if M.shape != (d**n, d**n):
        raise ValueError("matrix size does not match d^n")
    keep = sorted(set(keep))
    if not keep or any(k < 1 or k > n for k in keep):
        raise ValueError(f"keep set must be nonempty subsystem indices in 1..{n}")
    T = M.reshape((d,) * (2 * n))
    # contract row/column axes of every discarded subsystem
    removed = 0
    for sub in range(n, 0, -1):
        if sub in keep:
            continue
        ax = sub - 1
        T = np.trace(T, axis1=ax, axis2=ax + (n - removed))
        removed += 1
    m = d ** len(keep)
    return T.reshape(m, m)


def random_density(d: int, rank: int | None = None, seed=None) -> DensityMatrix:
    """Random density matrix G G^dag / Tr(...) with complex Gaussian G of shape d x rank."""
    if rank is None:
        rank = d
    if not 1 <= rank <= d:
        raise ValueError("rank must satisfy 1 <= rank <= d")
    rng = np.random.default_rng(seed)
    return DensityMatrix(_gram_states(rng.normal(size=(1, 2, d, rank)))[0], check=False)


def _gram_states(x: np.ndarray) -> np.ndarray:
    """G G^dag / Tr(G G^dag) with G = x[..., 0, :, :] + i x[..., 1, :, :]: (..., 2, d, r) to (..., d, d).

    Returned as (M + M^dag) / Tr(M + M^dag), M = G G^dag: exactly Hermitian, with a real diagonal.
    """
    G = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    M = _matmul(G, np.conj(np.swapaxes(G, -1, -2)))
    M = M + np.conj(np.swapaxes(M, -1, -2))
    return M / np.einsum("...ii->...", M).real[..., None, None]


def _gram_bloch(x: np.ndarray) -> np.ndarray:
    """(3, ...) Bloch vectors of ``_gram_states(x)``, x (..., 2, 2, r), in real arithmetic.

    The stack axes come out reversed: x (N, n, 2, 2, r) gives (3, n, N).

    With G's rows g0, g1: r = (2 Re g0.conj(g1), -2 Im g0.conj(g1), |g0|^2 - |g1|^2) / Tr G G^dag.
    """
    t = np.ascontiguousarray(x.T)  # (r, row, part, ...): one contiguous row per coordinate
    re0, im0, re1, im1 = t[:, 0, 0], t[:, 0, 1], t[:, 1, 0], t[:, 1, 1]
    n0, n1 = (re0 * re0 + im0 * im0).sum(axis=0), (re1 * re1 + im1 * im1).sum(axis=0)
    c, s = (re0 * re1 + im0 * im1).sum(axis=0), (im0 * re1 - re0 * im1).sum(axis=0)
    return np.stack([2 * c, -2 * s, n0 - n1]) / (n0 + n1)


def _bloch_spectra(r: np.ndarray) -> np.ndarray:
    """Ascending (..., 2) eigenvalues (1 -+ |r|)/2 of the qubits (I + r.sigma)/2 of (3, ...) r.

    Of ``density_spectra``'s checks only its PSD bound is left, |r| <= 1 + 2e-9; NaN and inf fail.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # inf and NaN fail the check
        norm = np.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2])
        low = (1 - norm) / 2
    _require(norm, 1 - 2 * _PSD_TOL, "negative eigenvalue {:.3e}", quote=low)
    return np.stack([low, (1 + norm) / 2], axis=-1)


def _bloch_mats(r: np.ndarray) -> np.ndarray:
    """The (..., 2, 2) qubits (I + r.sigma)/2 of (3, ...) Bloch vectors: ``_bloch_rows`` inverted."""
    x, y, z = r
    rows = np.stack([1 + z, x - 1j * y], -1), np.stack([x + 1j * y, 1 - z], -1)
    return 0.5 * np.stack(rows, -2)


def _matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B on (..., d, k) and (..., k, d) stacks, below d = 4 as a sum of k elementwise products.

    There numpy's stacked complex ``@`` costs more than its arithmetic.  Row-wise, as ``@`` is.
    """
    if A.shape[-2] >= 4:
        return A @ B
    out = A[..., :, :1] * B[..., :1, :]
    for k in range(1, A.shape[-1]):
        out += A[..., :, k:k + 1] * B[..., k:k + 1, :]
    return out


@dataclass(frozen=True)
class EntropyFunctional:
    """A symmetric functional of the spectrum.

    The evaluator maps (..., d) spectra to (...) values, reducing over the
    last axis, so one call serves a whole stack of states.  Calling the
    functional clamps spectra to [0, 1] first, absorbing eigenvalue rounding.

    ``concave_max_dim`` bounds the dimensions on which concavity is
    promised (and property-tested); None means every dimension.  The
    collision functional is concave only for d <= 2, so its guard is 2.
    """

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    concave_max_dim: int | None = None

    def __call__(self, eigenvalues: np.ndarray) -> np.ndarray:
        return self.evaluator(np.clip(eigenvalues, 0.0, 1.0))


def _von_neumann(lam: np.ndarray) -> np.ndarray:
    return -(lam * np.log(np.where(lam > 0, lam, 1.0))).sum(axis=-1)  # 0 log 0 = 0


def _renyi_half(lam: np.ndarray) -> np.ndarray:
    return 2.0 * np.log(np.sqrt(lam).sum(axis=-1))


def _renyi_two(lam: np.ndarray) -> np.ndarray:
    return -np.log((lam**2).sum(axis=-1))


def _neg_purity(lam: np.ndarray) -> np.ndarray:
    return -(lam**2).sum(axis=-1)


ENTROPY_FUNCTIONALS = {
    "von-neumann": EntropyFunctional("von-neumann", _von_neumann),
    "renyi-0.5": EntropyFunctional("renyi-0.5", _renyi_half),
    "renyi-2": EntropyFunctional("renyi-2", _renyi_two, concave_max_dim=2),
    "neg-purity": EntropyFunctional("neg-purity", _neg_purity),
}


def get_functional(name: str) -> EntropyFunctional:
    try:
        return ENTROPY_FUNCTIONALS[name]
    except KeyError:
        raise KeyError(f"unknown entropy functional {name!r}; "
                       f"choose from {sorted(ENTROPY_FUNCTIONALS)}") from None


def entropy(f: EntropyFunctional, rho: DensityMatrix) -> float:
    """Apply ``f`` to the spectrum of ``rho``."""
    return float(f(np.linalg.eigvalsh(rho.mat)))


def bloch_vector(rho: DensityMatrix) -> tuple[float, float, float]:
    """(x, y, z) with rho = (I + x sx + y sy + z sz)/2; qubits only."""
    M = _as_matrix(rho)
    if M.shape != (2, 2):
        raise ValueError("Bloch vector is defined for d = 2 only")
    return tuple(_bloch_rows(M).tolist())


def _bloch_rows(M: np.ndarray) -> np.ndarray:
    """(3, ...) Bloch vectors Tr(M sigma) of a (..., 2, 2) qubit stack, read off the entries."""
    m01, m10 = M[..., 0, 1], M[..., 1, 0]
    return np.stack([(m01 + m10).real, (m10 - m01).imag, (M[..., 0, 0] - M[..., 1, 1]).real])
