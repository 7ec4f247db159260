"""Irreducible representations, the group Fourier transform, and the
unitarity criterion for group-algebra elements.

A linear combination sum_g z_g L_g over the left regular representation
is unitary exactly when every per-irrep block B_tau = sum_g z_g tau(g)
is unitary.  ``synthesize_coeffs`` builds coefficients from a chosen
unitary per irrep, ``extract_blocks`` recovers the blocks and doubles as
the unitarity test, and ``fourier_matrix`` gives the basis change that
block-diagonalizes the regular representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .groups import CoeffVector, FiniteGroup, Perm, cyclic_group, symmetric_group
from .states import _require

__all__ = [
    "Irrep",
    "IrrepSet",
    "BlockUnitaries",
    "NotBlockDiagonal",
    "NonUnitaryBlock",
    "irreps_s3",
    "s3_two_dim_alt",
    "irreps_cyclic",
    "fourier_matrix",
    "block_decompose",
    "synthesize_coeffs",
    "extract_blocks",
    "tensor_rep",
    "flat_unitary_search",
    "haar_unitary",
    "random_block_unitaries",
    "s3_phase_blocks",
]

UNITARY_TOL = 1e-10
_HOM_TOL = 1e-12
_TENSOR_SIZE_CAP = 4096
_FLAT_TOL = 1e-8
# Levenberg-Marquardt in the flat search: iteration cap, central-difference step,
# the cost that counts as solved, and the damping's start and range
_LM_MAXITER = 100
_LM_FD_STEP = 1e-6
_LM_COST_TOL = 1e-30
_LM_DAMP_START, _LM_DAMP_MIN, _LM_DAMP_MAX = 1e-3, 1e-12, 1e10


class NotBlockDiagonal(ValueError):
    """Matrix is not in the span of the regular representation."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"off-block mass {residual:.3e} exceeds tolerance")


class NonUnitaryBlock(ValueError):
    """A per-irrep block failed the unitarity test."""

    def __init__(self, label: str, residual: float):
        self.label = label
        self.residual = residual
        super().__init__(f"block for irrep {label!r} is not unitary (residual {residual:.3e})")


def _unitarity_residual(U: np.ndarray) -> float:
    """Largest |U U^dag - I| entry over a (..., d, d) stack; NaN or inf if U is not finite."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf and NaN fail every check
        return float(np.abs(U @ np.conj(np.swapaxes(U, -1, -2)) - np.eye(U.shape[-1])).max())


@dataclass(frozen=True)
class Irrep:
    """One irreducible representation: label, dimension, and matrices indexed by element id."""

    label: str
    dim: int
    matrices: np.ndarray  # shape (|G|, dim, dim), complex

    def __call__(self, g: int) -> np.ndarray:
        return self.matrices[g]


@dataclass(frozen=True)
class IrrepSet:
    """A complete set of irreps of a group; validated at construction."""

    group: FiniteGroup
    irreps: tuple[Irrep, ...]

    def __post_init__(self):
        G = self.group
        if sum(r.dim**2 for r in self.irreps) != G.order:
            raise ValueError("squared dimensions must sum to the group order")
        for r in self.irreps:
            mats = np.asarray(r.matrices, dtype=complex)
            if mats.shape != (G.order, r.dim, r.dim):
                raise ValueError(f"irrep {r.label!r} matrix array has wrong shape")
            _require(np.abs(mats[G.identity_id] - np.eye(r.dim)).max(), _HOM_TOL,
                     lambda v: ValueError(f"irrep {r.label!r} does not map identity to I"))
            prod = np.einsum("gij,hjk->ghik", mats, mats)
            _require(np.abs(prod - mats[G.cayley]).max(), 1e-10,
                     lambda v: ValueError(f"irrep {r.label!r} is not a homomorphism"))
            _require(_unitarity_residual(mats), 1e-12, lambda v: ValueError(
                f"irrep {r.label!r} matrices not unitary (residual {v:.3e})"))
        chars = np.array([[np.trace(r.matrices[g]) for g in G.elements] for r in self.irreps])
        gram = chars @ chars.conj().T / G.order
        _require(np.abs(gram - np.eye(len(gram))).max(), 1e-10, "characters are not orthonormal")

    def __iter__(self):
        return iter(self.irreps)

    def __len__(self) -> int:
        return len(self.irreps)


@dataclass(frozen=True)
class BlockUnitaries:
    """One unitary per irrep, in irrep order."""

    blocks: tuple[np.ndarray, ...]
    labels: tuple[str, ...] = ()

    @classmethod
    def from_element(cls, irreps: IrrepSet, g: int) -> "BlockUnitaries":
        return cls(tuple(r(g).copy() for r in irreps), tuple(r.label for r in irreps))


def irreps_s3() -> IrrepSet:
    """The three irreps of S3: trivial, sign, and the real 2-dim standard one.

    Element order matches ``symmetric_group(3)``.  The 2-dim matrices use
    the real (rotation/reflection) basis; see ``s3_two_dim_alt`` for the
    diagonal-on-3-cycles alternative used in cross-checks.
    """
    G = symmetric_group(3)
    h = np.sqrt(3) / 2
    two = np.array([
        np.eye(2),
        [[-0.5, -h], [h, -0.5]],
        [[-0.5, h], [-h, -0.5]],
        [[1.0, 0.0], [0.0, -1.0]],
        [[-0.5, -h], [-h, 0.5]],
        [[-0.5, h], [h, 0.5]],
    ], dtype=complex)
    triv = np.ones((6, 1, 1), dtype=complex)
    sign = np.array([1, 1, 1, -1, -1, -1], dtype=complex).reshape(6, 1, 1)
    return IrrepSet(G, (
        Irrep("trivial", 1, triv),
        Irrep("sign", 1, sign),
        Irrep("standard", 2, two),
    ))


def s3_two_dim_alt() -> Irrep:
    """Alternative basis for the 2-dim S3 irrep: diagonal on the 3-cycles."""
    w = np.exp(2j * np.pi / 3)
    mats = np.array([
        np.eye(2),
        np.diag([w, w**2]),
        np.diag([w**2, w]),
        [[0, 1], [1, 0]],
        [[0, w**2], [w, 0]],
        [[0, w], [w**2, 0]],
    ], dtype=complex)
    return Irrep("standard-alt", 2, mats)


def irreps_cyclic(n: int) -> IrrepSet:
    """The n one-dimensional irreps of Z_n: tau_k(g) = exp(2*pi*i*k*g/n)."""
    G = cyclic_group(n)
    ks = np.arange(n)
    phases = np.exp(2j * np.pi * np.outer(ks, ks) / n)
    irreps = tuple(Irrep(f"chi{k}", 1, phases[k].reshape(n, 1, 1)) for k in range(n))
    return IrrepSet(G, irreps)


def fourier_matrix(irreps: IrrepSet) -> np.ndarray:
    """Group Fourier transform: rows indexed by (irrep, j, k), columns by g.

    Entries sqrt(d_tau/|G|) * tau(g)_{jk}.  Unitary by Schur
    orthogonality; conjugating L_g with it gives the block-diagonal form
    used by ``block_decompose``.
    """
    G = irreps.group
    return np.concatenate([np.sqrt(r.dim / G.order) * r.matrices.reshape(G.order, -1).T
                           for r in irreps])


def block_decompose(M: np.ndarray, irreps: IrrepSet) -> list[np.ndarray]:
    """Extract per-irrep blocks B_tau from F M F^dag, or fail.

    In the Fourier basis a regular-representation element looks like
    a direct sum of B_tau (x) I_{d_tau}.  Raises NotBlockDiagonal if the
    residual off that structure exceeds 1e-10.
    """
    G = irreps.group
    F = fourier_matrix(irreps)
    with np.errstate(invalid="ignore", over="ignore"):  # inf and NaN fail the check
        hat = F @ np.asarray(M, dtype=complex) @ F.conj().T
    blocks = []
    model = np.zeros_like(hat)
    off = 0
    for r in irreps:
        d = r.dim
        sub = hat[off:off + d * d, off:off + d * d].reshape(d, d, d, d)
        B = np.einsum("jkpk->jp", sub) / d
        blocks.append(B)
        model[off:off + d * d, off:off + d * d] = np.kron(B, np.eye(d))
        off += d * d
    _require(np.abs(hat - model).max(), UNITARY_TOL, NotBlockDiagonal)
    return blocks


def synthesize_coeffs(blocks: BlockUnitaries, irreps: IrrepSet) -> CoeffVector:
    """Coefficients z_g = sum_tau (d_tau/|G|) Tr(tau(g)^dag U_tau).

    The resulting sum_g z_g L_g is unitary for any choice of unitary
    blocks; non-unitary input raises NonUnitaryBlock.
    """
    G = irreps.group
    if len(blocks.blocks) != len(irreps.irreps):
        raise ValueError("need exactly one block per irrep")
    z = np.zeros(G.order, dtype=complex)
    for r, U in zip(irreps, blocks.blocks):
        U = np.asarray(U, dtype=complex)
        if U.shape != (r.dim, r.dim):
            raise ValueError(f"block for {r.label!r} has wrong shape")
        _require(_unitarity_residual(U), UNITARY_TOL, lambda v: NonUnitaryBlock(r.label, v))
        z += (r.dim / G.order) * np.einsum("gji,ji->g", r.matrices.conj(), U)
    return CoeffVector(G, z)


def extract_blocks(z: CoeffVector, irreps: IrrepSet) -> BlockUnitaries:
    """Per-irrep blocks B_tau = sum_g z_g tau(g); the unitarity test.

    Succeeds iff every block is unitary within 1e-10 — exactly the
    criterion for sum_g z_g L_g to be unitary.  Raises NonUnitaryBlock
    naming the first failing irrep.
    """
    if z.group is not irreps.group and not np.array_equal(z.group.cayley, irreps.group.cayley):
        raise ValueError("coefficient vector and irreps belong to different groups")
    out = []
    for r in irreps:
        B = np.einsum("g,gjk->jk", z.coeffs, r.matrices)
        _require(_unitarity_residual(B), UNITARY_TOL, lambda v: NonUnitaryBlock(r.label, v))
        out.append(B)
    return BlockUnitaries(tuple(out), tuple(r.label for r in irreps))


def _factor_axes(p: Perm) -> tuple[int, ...]:
    """Axes for which ``T.transpose(axes)`` is ``tensor_rep(p, d)`` applied to a (d,)*n tensor T."""
    return tuple(i - 1 for i in p.inverse().images)


def tensor_rep(p: Perm, d: int) -> np.ndarray:
    """Permutation p acting on (C^d)^(x n), n = p.n, by permuting tensor factors.

    Maps |i_1 ... i_n> to |i_{p^{-1}(1)} ... i_{p^{-1}(n)}>, so slot k of
    the output carries what slot p^{-1}(k) carried.  Satisfies
    Q_sigma Q_pi = Q_{sigma pi}.
    """
    if d < 1:
        raise ValueError("local dimension must be >= 1")
    n = p.n
    size = d**n
    if size > _TENSOR_SIZE_CAP:
        raise ValueError(f"matrix size {size} exceeds cap {_TENSOR_SIZE_CAP}")
    # column c of Q is Q e_c: the identity with its row axes permuted
    eye = np.eye(size, dtype=complex).reshape((d,) * n + (size,))
    return eye.transpose(_factor_axes(p) + (n,)).reshape(size, size)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian with phase fix."""
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, R = np.linalg.qr(G)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def random_block_unitaries(irreps: IrrepSet, rng: np.random.Generator) -> BlockUnitaries:
    """Independent Haar-random unitary per irrep."""
    return BlockUnitaries(tuple(haar_unitary(r.dim, rng) for r in irreps),
                          tuple(r.label for r in irreps))


def s3_phase_blocks(phi1: float, phi2: float, a: complex, c: complex) -> BlockUnitaries:
    """S3 blocks (e^{i phi1}, e^{i phi2}, [[a, c], [-conj(c), conj(a)]]) in irreps_s3 order.

    Unitary exactly when |a|^2 + |c|^2 = 1.
    """
    return BlockUnitaries((np.array([[np.exp(1j * phi1)]]),
                           np.array([[np.exp(1j * phi2)]]),
                           np.array([[a, c], [-np.conj(c), np.conj(a)]])),
                          ("trivial", "sign", "standard"))


def _s3_phase_coeffs(x: np.ndarray, irreps: IrrepSet) -> CoeffVector | None:
    """Coefficients from the 6-real parametrization used by the flat search."""
    phi1, phi2, ar, ai, cr, ci = x
    nrm = np.sqrt(ar * ar + ai * ai + cr * cr + ci * ci)
    if nrm < 1e-12:
        return None
    return synthesize_coeffs(s3_phase_blocks(phi1, phi2, (ar + 1j * ai) / nrm,
                                             (cr + 1j * ci) / nrm), irreps)


class _Fit(NamedTuple):
    x: np.ndarray
    nfev: int  # residual evaluations
    nit: int  # Jacobian evaluations


def minimize(residuals: Callable[[np.ndarray], np.ndarray], x0: np.ndarray) -> _Fit:
    """Levenberg-Marquardt on sum(residuals(x)**2) with a central-difference Jacobian.

    Stops at cost 1e-30, after 100 iterations, or when no damping up to
    1e10 lowers the cost.
    """
    x = np.asarray(x0, dtype=float)
    r = residuals(x)
    cost, nfev, nit, damp = r @ r, 1, 0, _LM_DAMP_START
    steps = _LM_FD_STEP * np.eye(x.size)
    while nit < _LM_MAXITER and cost > _LM_COST_TOL:
        nit += 1
        J = np.stack([residuals(x + e) - residuals(x - e) for e in steps], axis=1)
        J /= 2 * _LM_FD_STEP
        nfev += 2 * x.size
        A, g = J.T @ J, J.T @ r
        while damp < _LM_DAMP_MAX:
            trial = x - np.linalg.solve(A + damp * np.eye(x.size), g)
            r_trial = residuals(trial)
            nfev += 1
            if r_trial @ r_trial < cost:
                x, r, cost = trial, r_trial, r_trial @ r_trial
                damp = max(damp / 10, _LM_DAMP_MIN)
                break
            damp *= 10
        else:
            break
    return _Fit(x, nfev, nit)


def flat_unitary_search(irreps: IrrepSet, attempts: int, seed: int) -> list[CoeffVector]:
    """Search for unitary coefficient vectors with |z_i| all equal to 1/sqrt(6).

    Scaled by sqrt(6), such a vector is a row of a complex Hadamard
    matrix.  Random multi-start over the block phases (phi1, phi2) and
    the 2-dim block parameters (a, c), driving the six residuals
    |z_i|^2 - 1/6 to zero with Levenberg-Marquardt.  Returns the distinct
    solutions flat within 1e-8; may be empty for small ``attempts``.
    """
    if len(irreps.irreps) != 3 or irreps.group.order != 6:
        raise ValueError("flat search is specific to the S3 irrep set")
    rng = np.random.default_rng(seed)
    target = 1.0 / np.sqrt(6.0)

    def residuals(x: np.ndarray) -> np.ndarray:
        z = _s3_phase_coeffs(x, irreps)
        if z is None:
            return np.ones(6)
        return np.abs(z.coeffs) ** 2 - 1.0 / 6.0

    found: list[CoeffVector] = []
    seen: set[tuple] = set()
    for _ in range(attempts):
        x0 = np.concatenate([rng.uniform(0, 2 * np.pi, 2), rng.normal(size=4)])
        res = minimize(residuals, x0)
        z = _s3_phase_coeffs(res.x, irreps)
        if z is None or not _require(np.abs(np.abs(z.coeffs) - target).max(), _FLAT_TOL):
            continue
        extract_blocks(z, irreps)  # unitarity guaranteed by construction; keep honest
        key = tuple(np.round(np.concatenate([z.coeffs.real, z.coeffs.imag]), 6))
        if key not in seen:
            seen.add(key)
            found.append(z)
    return found
