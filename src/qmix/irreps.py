"""Irreducible representations, the group Fourier transform, and the
unitarity criterion for group-algebra elements.

A linear combination sum_g z_g L_g over the left regular representation
is unitary exactly when every per-irrep block B_tau = sum_g z_g tau(g)
is unitary.  ``synthesize_coeffs`` builds coefficients from a tuple of
unitary blocks in irrep order, ``extract_blocks`` recovers that tuple and
doubles as the unitarity test, and ``fourier_matrix`` gives the basis
change that block-diagonalizes the regular representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .groups import CoeffVector, FiniteGroup, Perm, _is_over, cyclic_group, symmetric_group
from .states import _require

__all__ = [
    "Irrep",
    "IrrepSet",
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
    "s3_coeffs_from_phases",
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


_S3_IRREPS = irreps_s3()
_S3 = _S3_IRREPS.group


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


def synthesize_coeffs(blocks: tuple[np.ndarray, ...], irreps: IrrepSet) -> CoeffVector:
    """Coefficients z_g = sum_tau (d_tau/|G|) Tr(tau(g)^dag U_tau), one block U_tau per irrep.

    The resulting sum_g z_g L_g is unitary for any choice of unitary
    blocks; non-unitary input raises NonUnitaryBlock.
    """
    G = irreps.group
    if len(blocks) != len(irreps.irreps):
        raise ValueError("need exactly one block per irrep")
    z = np.zeros(G.order, dtype=complex)
    for r, U in zip(irreps, blocks):
        U = np.asarray(U, dtype=complex)
        if U.shape != (r.dim, r.dim):
            raise ValueError(f"block for {r.label!r} has wrong shape")
        _require(_unitarity_residual(U), UNITARY_TOL, lambda v: NonUnitaryBlock(r.label, v))
        z += (r.dim / G.order) * np.einsum("gji,ji->g", r.matrices.conj(), U)
    return CoeffVector(G, z)


def extract_blocks(z: CoeffVector, irreps: IrrepSet) -> tuple[np.ndarray, ...]:
    """Per-irrep blocks B_tau = sum_g z_g tau(g), in irrep order; the unitarity test.

    Succeeds iff every block is unitary within 1e-10 — exactly the
    criterion for sum_g z_g L_g to be unitary.  Raises NonUnitaryBlock
    naming the first failing irrep.
    """
    if not _is_over(z, irreps.group):
        raise ValueError("coefficient vector and irreps belong to different groups")
    blocks = tuple(np.einsum("g,gjk->jk", z.coeffs, r.matrices) for r in irreps)
    for r, B in zip(irreps, blocks):
        _require(_unitarity_residual(B), UNITARY_TOL, lambda v: NonUnitaryBlock(r.label, v))
    return blocks


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


def random_block_unitaries(irreps: IrrepSet, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Independent Haar-random unitary per irrep, in irrep order."""
    return tuple(haar_unitary(r.dim, rng) for r in irreps)


def s3_phase_blocks(phi1: float, phi2: float, a: complex, c: complex) -> tuple[np.ndarray, ...]:
    """S3 blocks (e^{i phi1}, e^{i phi2}, [[a, c], [-conj(c), conj(a)]]) in irreps_s3 order.

    Unitary exactly when |a|^2 + |c|^2 = 1.
    """
    return (np.array([[np.exp(1j * phi1)]]), np.array([[np.exp(1j * phi2)]]),
            np.array([[a, c], [-np.conj(c), np.conj(a)]]))


def s3_coeffs_from_phases(phi1: float, phi2: float, a: complex, c: complex) -> CoeffVector:
    """The coefficients of ``s3_phase_blocks(phi1, phi2, a, c)``, in closed form.

    |a|^2 + |c|^2 must be 1, so the result is always unitary.  When
    phi1 = -phi2 the coefficients split into real (z1..z3) and imaginary
    (z4..z6) parts and the first-order weights become state-independent.
    """
    _require(abs(abs(a) ** 2 + abs(c) ** 2 - 1), UNITARY_TOL, "|a|^2 + |c|^2 must equal 1")
    if not np.isfinite([phi1, phi2]).all():
        raise ValueError("block phases must be finite")
    return CoeffVector(_S3, _s3_z(*(np.array([x]) for x in (phi1, phi2, a, c)))[0])


def _s3_z(phi1: np.ndarray, phi2: np.ndarray, a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(..., 6) coefficients from elementwise block phases and block rows (a, c), unchecked."""
    e1, e2 = np.exp(1j * phi1), np.exp(1j * phi2)
    r3 = np.sqrt(3)
    return np.stack([
        (e1 + e2 + 4 * np.real(a)) / 6,
        (e1 + e2 - 2 * np.real(a + r3 * c)) / 6,
        (e1 + e2 - 2 * np.real(a - r3 * c)) / 6,
        (e1 - e2 + 4j * np.imag(a)) / 6,
        (e1 - e2 - 2j * np.imag(a + r3 * c)) / 6,
        (e1 - e2 - 2j * np.imag(a - r3 * c)) / 6,
    ], axis=-1)


def _unit_ac(v: np.ndarray) -> np.ndarray:
    """Rows v = (Re a, Im a, Re c, Im c) (N, 4) scaled to norm 1, as complex (a, c) rows (N, 2)."""
    # each norm as a dot product, as np.linalg.norm takes it for a single vector
    nrm = np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]
    return (v / np.where(nrm < 1e-12, np.nan, nrm)).view(complex)  # NaN rows where v is ~0


def _flat_residuals(x: np.ndarray) -> np.ndarray:
    """|z_g|^2 - 1/6 of (k, 6) rows (phi1, phi2, Re a, Im a, Re c, Im c); 1 where (a, c) is 0."""
    r = np.abs(_s3_z(x[:, 0], x[:, 1], *_unit_ac(x[:, 2:]).T)) ** 2 - 1.0 / 6.0
    return np.where(np.isnan(r), 1.0, r)  # so a Jacobian holds no NaN


class _Fit(NamedTuple):
    x: np.ndarray
    nfev: int  # residual evaluations
    nit: int  # Jacobian evaluations


def minimize(residuals: Callable[[np.ndarray], np.ndarray], x0: np.ndarray) -> _Fit:
    """Levenberg-Marquardt on sum(r**2) with a central-difference Jacobian.

    ``residuals`` maps (k, n) rows x to (k, m) rows; a Jacobian is one call on x +- h e_j.
    Stops at cost 1e-30, after 100 iterations, or when no damping up to
    1e10 lowers the cost.
    """
    x = np.asarray(x0, dtype=float)
    r = residuals(x[None])[0]
    cost, nfev, nit, damp = r @ r, 1, 0, _LM_DAMP_START
    steps = _LM_FD_STEP * np.eye(x.size)
    while nit < _LM_MAXITER and cost > _LM_COST_TOL:
        nit += 1
        r_pm = residuals(np.concatenate([x + steps, x - steps]))
        J = (r_pm[:x.size] - r_pm[x.size:]).T / (2 * _LM_FD_STEP)
        nfev += 2 * x.size
        A, g = J.T @ J, J.T @ r
        while damp < _LM_DAMP_MAX:
            trial = x - np.linalg.solve(A + damp * np.eye(x.size), g)
            r_trial = residuals(trial[None])[0]
            nfev += 1
            if r_trial @ r_trial < cost:
                x, r, cost = trial, r_trial, r_trial @ r_trial
                damp = max(damp / 10, _LM_DAMP_MIN)
                break
            damp *= 10
        else:
            break
    return _Fit(x, nfev, nit)


def flat_unitary_search(attempts: int, seed: int) -> list[CoeffVector]:
    """Search for unitary coefficient vectors over S3 with |z_i| all equal to 1/sqrt(6).

    Scaled by sqrt(6), such a vector is a row of a complex Hadamard
    matrix.  Random multi-start over the block phases (phi1, phi2) and
    the 2-dim block parameters (a, c), driving the six residuals
    |z_i|^2 - 1/6 of the closed form to zero with Levenberg-Marquardt.
    Returns the distinct solutions flat within 1e-8, in the order first
    found; may be empty for small ``attempts``.
    """
    rng = np.random.default_rng(seed)
    found: dict[tuple, CoeffVector] = {}
    for _ in range(attempts):
        x0 = np.concatenate([rng.uniform(0, 2 * np.pi, 2), rng.normal(size=4)])
        x = minimize(_flat_residuals, x0).x
        z = _s3_z(x[:1], x[1:2], *_unit_ac(x[None, 2:]).T)[0]
        if _require(np.abs(np.abs(z) - 1.0 / np.sqrt(6.0)).max(), _FLAT_TOL):  # NaN fails
            z = CoeffVector(_S3, z)
            extract_blocks(z, _S3_IRREPS)  # unitarity guaranteed by construction; keep honest
            found.setdefault(tuple(np.round(np.concatenate([z.coeffs.real, z.coeffs.imag]), 6)), z)
    return list(found.values())
