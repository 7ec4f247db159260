"""Binary and ternary unitary mixing of density matrices.

The binary operation feeds two states through a partial swap and
discards one output; the ternary operation conjugates a three-fold
product state by a unitary element of the S3 group algebra and keeps the
first factor.  Three independent evaluators are provided and
cross-checked in the tests:

* ``combine3_bruteforce`` — build the big unitary, conjugate, trace out;
* ``combine3_magic``      — the explicit 36-term operator expansion;
* ``combine3_closed``     — the nine-term closed form in the q-parametrization.

The closed form and the binary partial swap are evaluated on stacks:
``combine3_closed_stacked`` and ``combine2_stacked`` take (..., d, d)
states and broadcast parameters, and the single-state entry points are
batches of one.

The q-triple (sum |q_i|^2 = 1, sum q_i = 1), its polar (p, delta) form,
and nested two-level binary expressions are interconvertible here, with
the vanishing-cosine criterion deciding nestedness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._serial import complexes, pairs, reals
from .groups import CoeffVector, Perm, symmetric_group
from .irreps import extract_blocks, irreps_s3, tensor_rep
from .states import DensityMatrix, commutator, partial_trace, tensor

__all__ = [
    "QTriple",
    "PDelta",
    "S3Coeffs",
    "NestedSpec",
    "GaugeViolation",
    "DegenerateWeight",
    "DegenerateOuterWeight",
    "NotNested",
    "CoefficientSumNonzero",
    "partial_swap_unitary",
    "partial_swap_params",
    "combine2",
    "combine2_stacked",
    "combine2_bruteforce",
    "combine3_bruteforce",
    "combine3_magic",
    "combine3_closed",
    "combine3_closed_stacked",
    "combine3_pdelta",
    "s3_coeffs_from_phases",
    "q_from_z",
    "z_from_q",
    "pdelta_from_q",
    "q_from_pdelta",
    "covariance_check",
    "third_order_reduce",
    "nested_expand",
    "nested_params_for_weights",
    "delta_from_nested",
    "nested_from_delta",
    "verify_real_imag_param",
    "random_qtriple",
    "random_s3_phases",
    "wrap_angle",
    "cos_vanishes",
]

_CONSTRAINT_TOL = 1e-10
_NESTED_COS_TOL = 1e-9
_SWAP_TOL = 1e-9

_S3 = symmetric_group(3)
_S3_IRREPS = irreps_s3()
_SWAP_PERM = Perm((2, 1))


class GaugeViolation(ValueError):
    """Coefficients are not in the real/imaginary split gauge."""


class DegenerateWeight(ValueError):
    """Some weight p_k is zero, so the phase of q_k is undefined.

    Carries the weights, which are well-defined regardless.
    """

    def __init__(self, weights):
        self.weights = tuple(float(w) for w in weights)
        super().__init__(f"zero weight in {self.weights}; phases undefined")


class DegenerateOuterWeight(ValueError):
    """Outer weight 1 leaves the inner combination undetermined."""


class NotNested(ValueError):
    """No cos(delta_ij) vanishes, so no two-level binary expression exists."""


class CoefficientSumNonzero(ValueError):
    """The pairwise real-overlap sum is nonzero (invalid q-triple)."""


def _is_probability_triple(p: np.ndarray) -> bool:
    """Three nonnegative weights summing to 1 (within rounding); False for NaN."""
    return bool(p.shape == (3,) and (p >= -1e-15).all() and abs(p.sum() - 1) <= _CONSTRAINT_TOL)


# ---------------------------------------------------------------------------
# parameter types


def _closure_sums(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sum |q_i|^2, sum q_i) over the last axis: both 1 on a q-triple in the sum-one gauge."""
    return (np.abs(q) ** 2).sum(axis=-1), q.sum(axis=-1)


def _sum_one_gauge(q: np.ndarray) -> np.ndarray:
    """Rows with |sum q_i| = 1 rotated so that sum q_i = 1; rows already within tolerance are kept."""
    total = q.sum(axis=-1, keepdims=True)
    # np.hypot is what abs() of one complex computes; the array abs may round differently
    return np.where(abs(total - 1) > _CONSTRAINT_TOL,
                    q * (np.conj(total) / np.hypot(total.real, total.imag)), q)


def _closed_rows(q) -> np.ndarray:
    """q as a complex (..., 3) array, each row checked as a QTriple in the sum-one gauge."""
    q = np.asarray(q, dtype=complex)
    norm, total = _closure_sums(q)
    if not ((abs(norm - 1) <= _CONSTRAINT_TOL) & (abs(total - 1) <= _CONSTRAINT_TOL)).all():
        raise ValueError("rows are not q-triples with sum |q_i|^2 = 1 and sum q_i = 1")
    return q


@dataclass(frozen=True)
class QTriple:
    """Complex triple with sum |q_i|^2 = 1 and sum q_i = 1.

    This is the gauge-fixed parametrization of the ternary operation;
    input with |sum q_i| = 1 is accepted and rotated into the sum-one
    gauge.  |q_i|^2 are the first-order mixing weights.
    """

    q1: complex
    q2: complex
    q3: complex

    def __post_init__(self):
        q = np.array([self.q1, self.q2, self.q3], dtype=complex)
        norm, total = _closure_sums(q)
        if not abs(norm - 1) <= _CONSTRAINT_TOL:  # written so that NaN fails
            raise ValueError(f"sum |q_i|^2 = {norm:.12g}, not 1")
        if not abs(abs(total) - 1) <= _CONSTRAINT_TOL:
            raise ValueError(f"|q1+q2+q3| = {abs(total):.12g}, not 1")
        for name, value in zip(("q1", "q2", "q3"), _sum_one_gauge(q).tolist()):
            object.__setattr__(self, name, value)

    def as_array(self) -> np.ndarray:
        return np.array([self.q1, self.q2, self.q3], dtype=complex)

    def weights(self) -> np.ndarray:
        return np.abs(self.as_array()) ** 2

    def conjugate(self) -> "QTriple":
        return QTriple(np.conj(self.q1), np.conj(self.q2), np.conj(self.q3))

    def to_json(self) -> list:
        return pairs(self.as_array())

    @classmethod
    def from_json(cls, data) -> "QTriple":
        return cls(*complexes(data, (3,), "q").tolist())


@dataclass(frozen=True)
class PDelta:
    """Weights plus consecutive phase differences: q_k = e^{i phi_k} sqrt(p_k).

    Stores delta_12 = phi_1 - phi_2 etc., each normalized to (-pi, pi].
    The deltas must sum to zero mod 2*pi, and the weighted cosine sum
    sqrt(p1 p2) cos d12 + sqrt(p2 p3) cos d23 + sqrt(p3 p1) cos d31 must
    vanish — together these make the triple realizable.
    """

    p: tuple[float, float, float]
    deltas: tuple[float, float, float]  # (d12, d23, d31)

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if not _is_probability_triple(p):
            raise ValueError("weights must be nonnegative and sum to 1")
        d = np.asarray(self.deltas, dtype=float)
        if d.shape != (3,):
            raise ValueError("need three deltas (d12, d23, d31)")
        if not abs(wrap_angle(d.sum())) <= _CONSTRAINT_TOL:
            raise ValueError(f"delta sum {d.sum():.12g} is not 0 mod 2*pi")
        r = np.sqrt(np.maximum(p, 0.0))
        cos_sum = (r[0] * r[1] * np.cos(d[0]) + r[1] * r[2] * np.cos(d[1])
                   + r[2] * r[0] * np.cos(d[2]))
        if not abs(cos_sum) <= _CONSTRAINT_TOL:
            raise ValueError(f"weighted cosine sum {cos_sum:.3e} does not vanish")
        object.__setattr__(self, "p", tuple(float(v) for v in p))
        object.__setattr__(self, "deltas", tuple(float(v) for v in d))

    def to_json(self) -> dict:
        return {"p": list(self.p), "deltas": list(self.deltas)}

    @classmethod
    def from_json(cls, data) -> "PDelta":
        return cls(reals(data["p"], (3,), "p"), reals(data["deltas"], (3,), "deltas"))


@dataclass(frozen=True)
class S3Coeffs:
    """Six coefficients over S3 elements, in the fixed element order.

    Construction does not force unitarity — the 36-term evaluator is
    defined for any coefficients — but ``validate_unitary`` checks it,
    and the brute-force channel requires it.
    """

    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        if z.shape != (6,):
            raise ValueError("need exactly six coefficients")
        object.__setattr__(self, "z", z)

    def as_coeffvector(self) -> CoeffVector:
        return CoeffVector(_S3, self.z.copy())

    def validate_unitary(self) -> None:
        """Raise NonUnitaryBlock unless every irrep block is unitary."""
        extract_blocks(self.as_coeffvector(), _S3_IRREPS)

    def independence_residual(self) -> float:
        """Max |Re(z_i conj(z_{i+3}))|; zero when first-order weights are state-independent."""
        z = self.z
        return float(max(abs(np.real(z[i] * np.conj(z[i + 3]))) for i in range(3)))

    def to_json(self) -> list:
        return pairs(self.z)

    @classmethod
    def from_json(cls, data) -> "S3Coeffs":
        return cls(complexes(data, (6,), "z"))


@dataclass(frozen=True)
class NestedSpec:
    """A two-level binary expression: outer state, weights, and sign bits.

    ``ordering`` picks which state sits outside: 1 means state 1 against
    the pair (2, 3), 2 means state 2 against (3, 1), 3 means state 3
    against (1, 2).  ``s`` / ``s_prime`` are 0 for the +commutator branch
    and 1 for the -commutator branch, outer and inner respectively.
    """

    ordering: int
    a: float
    a_prime: float
    s: int
    s_prime: int

    def __post_init__(self):
        if self.ordering not in (1, 2, 3):
            raise ValueError("ordering must be 1, 2, or 3")
        if not (0 <= self.a <= 1 and 0 <= self.a_prime <= 1):
            raise ValueError("weights must lie in [0, 1]")
        if self.s not in (0, 1) or self.s_prime not in (0, 1):
            raise ValueError("sign bits must be 0 or 1")


# ---------------------------------------------------------------------------
# binary combination


def partial_swap_unitary(lam: float, d: int, sign: int = +1) -> np.ndarray:
    """sqrt(lam) I + sign * i sqrt(1-lam) SWAP on two qudits."""
    if not 0 <= lam <= 1:
        raise ValueError("lambda must lie in [0, 1]")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    S = tensor_rep(_SWAP_PERM, d)
    return np.sqrt(lam) * np.eye(d * d) + sign * 1j * np.sqrt(1 - lam) * S


def combine2(rho1: DensityMatrix, rho2: DensityMatrix, lam: float, sign: int = +1) -> DensityMatrix:
    """Binary mix: lam*rho1 + (1-lam)*rho2 + sign*sqrt(lam(1-lam)) i[rho2, rho1]."""
    return DensityMatrix(combine2_stacked(*_mats(rho1, rho2), [lam], [sign])[0])


def combine2_stacked(r1: np.ndarray, r2: np.ndarray, lam, sign) -> np.ndarray:
    """``combine2`` on (..., d, d) state stacks, with (...) lam and sign broadcast against them.

    Returns the (..., d, d) outputs unvalidated (see ``states.density_spectra``).
    """
    lam = np.asarray(lam, dtype=float)[..., None, None]
    sign = np.asarray(sign)[..., None, None]
    if not ((0 <= lam) & (lam <= 1)).all():
        raise ValueError("lambda must lie in [0, 1]")
    if not ((sign == 1) | (sign == -1)).all():
        raise ValueError("sign must be +1 or -1")
    return (lam * r1 + (1 - lam) * r2
            + sign * np.sqrt(lam * (1 - lam)) * 1j * commutator(r2, r1))


def combine2_bruteforce(rho1: DensityMatrix, rho2: DensityMatrix, lam: float,
                        sign: int = +1) -> DensityMatrix:
    """Same channel evaluated the long way: conjugate by the partial swap, trace out."""
    d = rho1.dim
    U = partial_swap_unitary(lam, d, sign)
    big = U @ tensor([rho1, rho2]).mat @ U.conj().T
    return DensityMatrix(partial_trace(big, {1}, d, 2))


def partial_swap_params(z1: complex, z2: complex) -> tuple[float, float, int]:
    """Recover (phi, lam, sign) with z1 = e^{i phi} sqrt(lam), z2 = sign i e^{i phi} sqrt(1-lam).

    Any unitary z1*I + z2*SWAP admits such a form; raises ValueError if
    the pair is not unitary (|z1+z2| and |z1-z2| must both be 1).
    """
    if not (abs(abs(z1 + z2) - 1) <= _SWAP_TOL and abs(abs(z1 - z2) - 1) <= _SWAP_TOL):
        raise ValueError("z1*I + z2*SWAP is not unitary")
    lam = min(abs(z1) ** 2, 1.0)
    if abs(z1) >= _SWAP_TOL:
        # unitarity makes z2/(i z1) exactly real, so arg(z1) is the phase
        phi = float(np.angle(z1))
        sign = +1 if np.real(z2 * np.exp(-1j * phi) / 1j) >= 0 else -1
    else:
        phi = float(np.angle(z2 / 1j))
        sign = +1
    return phi, lam, sign


# ---------------------------------------------------------------------------
# ternary combination, three evaluators


def _mats(*rhos: DensityMatrix) -> list[np.ndarray]:
    dims = {r.dim for r in rhos}
    if len(dims) != 1:
        raise ValueError("dimension mismatch")
    return [r.mat for r in rhos]


def combine3_bruteforce(rho1: DensityMatrix, rho2: DensityMatrix, rho3: DensityMatrix,
                        z: S3Coeffs) -> DensityMatrix:
    """Conjugate rho1 (x) rho2 (x) rho3 by U = sum_i z_i Q_i and keep factor 1."""
    _mats(rho1, rho2, rho3)
    d = rho1.dim
    if d > 8:
        raise ValueError("brute force capped at local dimension 8")
    z.validate_unitary()
    U = sum(z.z[g] * tensor_rep(_S3.perms[g], d) for g in range(6))
    big = U @ tensor([rho1, rho2, rho3]).mat @ U.conj().T
    return DensityMatrix(partial_trace(big, {1}, d, 3))


def combine3_magic(rho1: DensityMatrix, rho2: DensityMatrix, rho3: DensityMatrix,
                   z: S3Coeffs) -> DensityMatrix:
    """The 36-term expansion of the ternary channel.

    Works for arbitrary coefficients; the overlap-weighted first-order
    terms survive unless Re(z_i conj(z_{i+3})) = 0, which is exactly the
    state-independence condition on the weights.
    """
    r1, r2, r3 = _mats(rho1, rho2, rho3)
    z1, z2, z3, z4, z5, z6 = z.z
    t12 = np.trace(r1 @ r2)
    t23 = np.trace(r2 @ r3)
    t31 = np.trace(r3 @ r1)

    out = (abs(z1) ** 2 + abs(z4) ** 2 + 2 * np.real(z1 * np.conj(z4)) * t23) * r1 \
        + (abs(z2) ** 2 + abs(z5) ** 2 + 2 * np.real(z2 * np.conj(z5)) * t31) * r2 \
        + (abs(z3) ** 2 + abs(z6) ** 2 + 2 * np.real(z3 * np.conj(z6)) * t12) * r3

    def with_ct(coeff: complex, prod: np.ndarray) -> np.ndarray:
        term = coeff * prod
        return term + term.conj().T

    out = out + with_ct(z1 * np.conj(z5) + z4 * np.conj(z2), r1 @ r2)
    out = out + with_ct(z2 * np.conj(z6) + z5 * np.conj(z3), r2 @ r3)
    out = out + with_ct(z3 * np.conj(z4) + z6 * np.conj(z1), r3 @ r1)
    out = out + with_ct(z2 * np.conj(z1) + z5 * np.conj(z4), r2 @ r3 @ r1)
    out = out + with_ct(z3 * np.conj(z2) + z6 * np.conj(z5), r3 @ r1 @ r2)
    out = out + with_ct(z1 * np.conj(z3) + z4 * np.conj(z6), r1 @ r2 @ r3)
    return DensityMatrix(out)


def combine3_closed(rho1: DensityMatrix, rho2: DensityMatrix, rho3: DensityMatrix,
                    q: QTriple) -> DensityMatrix:
    """Nine-term closed form of the ternary channel in the q-parametrization.

    A batch of one of ``combine3_closed_stacked``, which gives the formula;
    the output is validated as a density matrix.
    """
    return DensityMatrix(combine3_closed_stacked(*_mats(rho1, rho2, rho3), q.as_array()[None])[0])


def combine3_closed_stacked(r1: np.ndarray, r2: np.ndarray, r3: np.ndarray, q) -> np.ndarray:
    """``combine3_closed`` on (..., d, d) state stacks, with (..., 3) q-rows broadcast against them.

    With w_k = |q_k|^2, s_ij = Im(q_i conj q_j) and x_ij = Re(q_i conj q_j)
    the output is sum_k w_k rho_k + sum s_ij i[rho_i, rho_j] plus the
    third-order block sum x_ij (rho_j rho_k rho_i + rho_i rho_k rho_j) over
    the cyclic (i, j, k).  It is quadratic in q; the binary partial swap is
    its nested special case.  Each row of ``q`` is checked as a q-triple;
    the (..., d, d) outputs are returned unvalidated (see
    ``states.density_spectra``).  The q products are spelled out in real
    arithmetic, so a row does not depend on the others in its stack.
    """
    q = _closed_rows(q)[..., None, None]
    w = np.abs(q) ** 2
    re, im = q.real, q.imag
    x12, x23, x31 = (re[..., i, :, :] * re[..., j, :, :] + im[..., i, :, :] * im[..., j, :, :]
                     for i, j in ((0, 1), (1, 2), (2, 0)))
    s12, s23, s31 = (im[..., i, :, :] * re[..., j, :, :] - re[..., i, :, :] * im[..., j, :, :]
                     for i, j in ((0, 1), (1, 2), (2, 0)))
    p12, p21, p23, p32, p31, p13 = r1 @ r2, r2 @ r1, r2 @ r3, r3 @ r2, r3 @ r1, r1 @ r3
    out = w[..., 0, :, :] * r1 + w[..., 1, :, :] * r2 + w[..., 2, :, :] * r3
    out = out + s12 * 1j * (p12 - p21) + s23 * 1j * (p23 - p32) + s31 * 1j * (p31 - p13)
    return out + (x12 * (p23 @ r1 + p13 @ r2)
                  + x23 * (p31 @ r2 + p21 @ r3)
                  + x31 * (p12 @ r3 + p32 @ r1))


def combine3_pdelta(rho1: DensityMatrix, rho2: DensityMatrix, rho3: DensityMatrix,
                    pd: PDelta) -> DensityMatrix:
    """Ternary channel from the (p, delta) form: the closed form at q_from_pdelta(pd)."""
    return combine3_closed(rho1, rho2, rho3, q_from_pdelta(pd))


# ---------------------------------------------------------------------------
# parametrization conversions


def s3_coeffs_from_phases(phi1: float, phi2: float, a: complex, c: complex) -> S3Coeffs:
    """Coefficients synthesized from block phases and the 2-dim block row (a, c).

    The blocks are (e^{i phi1}, e^{i phi2}, [[a, c], [-conj(c), conj(a)]]),
    so |a|^2 + |c|^2 must be 1 and the result is always unitary.  When
    phi1 = -phi2 the coefficients split into real (z1..z3) and imaginary
    (z4..z6) parts and the first-order weights become state-independent.
    """
    if not abs(abs(a) ** 2 + abs(c) ** 2 - 1) <= _CONSTRAINT_TOL:  # written so that NaN fails
        raise ValueError("|a|^2 + |c|^2 must equal 1")
    if not np.isfinite([phi1, phi2]).all():
        raise ValueError("block phases must be finite")
    return S3Coeffs(_s3_z(*(np.array([x]) for x in (phi1, phi2, a, c)))[0])


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


def q_from_z(z: S3Coeffs) -> QTriple:
    """Pair up coefficients: q_k = z_k + z_{k+3}.

    Requires the split gauge (z1..z3 real, z4..z6 imaginary); otherwise
    the pairing loses information and GaugeViolation is raised.  The
    result is rotated into the sum-one gauge by the QTriple constructor.
    """
    worst = np.abs(np.concatenate([z.z[:3].imag, z.z[3:].real])).max()
    if not worst <= _CONSTRAINT_TOL:  # written so that NaN fails
        raise GaugeViolation(f"coefficients not in the real/imaginary gauge (residual {worst:.3e})")
    q = z.z[:3] + z.z[3:]
    return QTriple(*q)


def z_from_q(q: QTriple) -> S3Coeffs:
    """Split a q-triple back into coefficients (Re q_k, then i Im q_k)."""
    qa = q.as_array()
    return S3Coeffs(np.concatenate([qa.real.astype(complex), 1j * qa.imag]))


def wrap_angle(x):
    """Angle(s) mapped into [-pi, pi); works elementwise on arrays."""
    return (x + np.pi) % (2 * np.pi) - np.pi


def cos_vanishes(deltas):
    """Elementwise |cos(delta)| below the nestedness tolerance (False for NaN).

    A (p, delta) point is a nested two-level binary expression exactly when
    this holds for one of its phase differences.
    """
    return np.abs(np.cos(deltas)) < _NESTED_COS_TOL


def pdelta_from_q(q: QTriple) -> PDelta:
    """Polar form: weights |q_k|^2 and consecutive phase differences.

    Raises DegenerateWeight (carrying the weights) if some weight
    vanishes, since that phase is then undefined.
    """
    qa = q.as_array()
    p = np.abs(qa) ** 2
    if p.min() < 1e-15:
        raise DegenerateWeight(p)
    ph = np.angle(qa)
    return PDelta(tuple(p), tuple(float(d) for d in wrap_angle(ph - ph[[1, 2, 0]])))


def q_from_pdelta(pd: PDelta) -> QTriple:
    """Rebuild the q-triple from weights and phase differences (gauge fixed by QTriple)."""
    p = np.asarray(pd.p, dtype=float)
    d12, _, d31 = pd.deltas
    phases = np.array([0.0, -d12, d31])
    q = np.exp(1j * phases) * np.sqrt(np.maximum(p, 0.0))
    return QTriple(*q)


def covariance_check(op, V: np.ndarray, inputs) -> float:
    """Max |op(V rho_i V^dag, ...) - V op(rho_i, ...) V^dag|.

    ``op`` maps a tuple of DensityMatrix to a DensityMatrix.  Any mix
    built from permutation conjugation commutes with identical local
    basis changes, so this should vanish for the combiners.
    """
    rotated = [DensityMatrix(V @ r.mat @ V.conj().T, check=False) for r in inputs]
    lhs = op(*rotated).mat
    rhs = V @ op(*inputs).mat @ V.conj().T
    return float(np.abs(lhs - rhs).max())


def third_order_reduce(q: QTriple) -> tuple[float, float]:
    """Coefficients (x, y) of the two independent double commutators.

    The third-order block of the closed form equals
    x * i[rho1, i[rho2, rho3]] + y * i[i[rho1, rho2], rho3]
    with x = Re(q1 conj(q2)) and y = Re(q2 conj(q3)); the remaining
    overlap Re(q3 conj(q1)) is -(x+y).  Requires the pairwise real
    overlaps to sum to zero, which holds for every valid q-triple.
    """
    qa = q.as_array()
    x = float(np.real(qa[0] * np.conj(qa[1])))
    y = float(np.real(qa[1] * np.conj(qa[2])))
    zsum = x + y + float(np.real(qa[2] * np.conj(qa[0])))
    if not abs(zsum) <= _CONSTRAINT_TOL:  # written so that NaN fails
        raise CoefficientSumNonzero(f"real overlaps sum to {zsum:.3e}")
    return x, y


# ---------------------------------------------------------------------------
# nested two-level binary expressions


def _nested_states(ordering: int, rho1, rho2, rho3):
    if ordering == 1:
        return rho1, rho2, rho3
    if ordering == 2:
        return rho2, rho3, rho1
    return rho3, rho1, rho2


def nested_expand(spec: NestedSpec, rho1: DensityMatrix, rho2: DensityMatrix,
                  rho3: DensityMatrix) -> DensityMatrix:
    """Evaluate the two-level binary expression outer (+/-)_a (left (+/-)_a' right)."""
    outer, left, right = _nested_states(spec.ordering, rho1, rho2, rho3)
    inner = combine2(left, right, spec.a_prime, +1 if spec.s_prime == 0 else -1)
    return combine2(outer, inner, spec.a, +1 if spec.s == 0 else -1)


def nested_params_for_weights(p, ordering: int) -> tuple[float, float]:
    """Solve (a, a') so the nested first-order weights match ``p``.

    For ordering 1 the weights come out as (a, a'(1-a), (1-a')(1-a));
    the other orderings are the cyclic shifts.  Raises
    DegenerateOuterWeight when the outer weight is 1 (inner weights
    undetermined).
    """
    p = np.asarray(p, dtype=float)
    if not _is_probability_triple(p):
        raise ValueError("p must be a probability triple")
    if ordering not in (1, 2, 3):
        raise ValueError("ordering must be 1, 2, or 3")
    outer = p[ordering - 1]
    inner_left = p[ordering % 3]
    rest = 1.0 - outer
    if rest <= 1e-15:
        raise DegenerateOuterWeight("outer weight is 1; inner weights undetermined")
    return float(outer), float(min(inner_left / rest, 1.0))


def _nested_delta_triplet(pB: float, pC: float, s: int, s_prime: int
                          ) -> tuple[float, float, float]:
    """(d_BC, d_CA, d_AB) for outer state A against inner pair (B, C)."""
    so = -1.0 if s else 1.0        # (-1)^s with s in {0,1}
    si = -1.0 if s_prime else 1.0
    tot = pB + pC
    d_bc = -si * np.pi / 2
    sin_ca = so * np.sqrt(pC / tot)
    cos_ca = -so * si * np.sqrt(pB / tot)
    sin_ab = -so * np.sqrt(pB / tot)
    cos_ab = so * si * np.sqrt(pC / tot)
    return float(d_bc), float(np.arctan2(sin_ca, cos_ca)), float(np.arctan2(sin_ab, cos_ab))


def delta_from_nested(spec: NestedSpec, p) -> PDelta:
    """The (p, delta) point realized by a nested expression with weights ``p``.

    The inner pair's cosine vanishes (delta = +/- pi/2) and the other two
    deltas follow from the sign bits; this is the forward direction of
    the nestedness criterion.  Requires all weights nonzero.
    """
    p = np.asarray(p, dtype=float)
    if p.min() <= 1e-15:
        raise DegenerateWeight(p)
    a, a_prime = nested_params_for_weights(p, spec.ordering)
    if abs(a - spec.a) > 1e-9 or abs(a_prime - spec.a_prime) > 1e-9:
        raise ValueError("spec weights do not reproduce p")
    if spec.ordering == 1:
        d23, d31, d12 = _nested_delta_triplet(p[1], p[2], spec.s, spec.s_prime)
    elif spec.ordering == 2:
        d31, d12, d23 = _nested_delta_triplet(p[2], p[0], spec.s, spec.s_prime)
    else:
        d12, d23, d31 = _nested_delta_triplet(p[0], p[1], spec.s, spec.s_prime)
    return PDelta(tuple(p), (d12, d23, d31))


def nested_from_delta(pd: PDelta) -> NestedSpec:
    """Recover the nested expression from a (p, delta) point, if one exists.

    A point is nested exactly when some cos(delta_ij) vanishes; the
    vanishing slot fixes the ordering and the signs of the other sines
    fix the +/- bits.  Raises NotNested otherwise.
    """
    p = np.asarray(pd.p, dtype=float)
    if p.min() <= 1e-15:
        raise DegenerateWeight(p)
    d12, d23, d31 = pd.deltas
    # ordering k puts state k outside; its inner pair's delta is the one that vanishes
    for ordering, inner, ca in ((1, d23, d31), (2, d31, d12), (3, d12, d23)):
        if cos_vanishes(inner):
            s_prime = 0 if np.sin(inner) < 0 else 1
            s = 0 if np.sin(ca) > 0 else 1
            a, a_prime = nested_params_for_weights(p, ordering)
            return NestedSpec(ordering, a, a_prime, s, s_prime)
    cosines = tuple(float(np.cos(d)) for d in (d23, d31, d12))
    raise NotNested(f"no vanishing cosine among {cosines}")


def verify_real_imag_param(a1: float, a2: float, a3: float,
                           b1: float, b2: float, b3: float) -> bool:
    """Unitarity of (a1, a2, a3, i b1, i b2, i b3) by the two real constraints.

    True iff the squares sum to 1 and the cyclic cross terms
    a1 a2 + a2 a3 + a3 a1 + b1 b2 + b2 b3 + b3 b1 vanish, both within
    1e-10; equivalent to the per-block unitarity test.
    """
    norm = a1 * a1 + a2 * a2 + a3 * a3 + b1 * b1 + b2 * b2 + b3 * b3
    cross = a1 * a2 + a2 * a3 + a3 * a1 + b1 * b2 + b2 * b3 + b3 * b1
    return abs(norm - 1) <= _CONSTRAINT_TOL and abs(cross) <= _CONSTRAINT_TOL


# ---------------------------------------------------------------------------
# manifold sampling


def random_s3_phases(rng: np.random.Generator, balanced: bool = True
                     ) -> tuple[float, float, complex, complex]:
    """Random (phi1, phi2, a, c) with (a, c) Haar on the unit sphere of C^2.

    ``balanced`` forces phi2 = -phi1, the family whose coefficients admit
    the q-parametrization.
    """
    phi1 = float(rng.uniform(0, 2 * np.pi))
    phi2 = -phi1 if balanced else float(rng.uniform(0, 2 * np.pi))
    v = rng.normal(size=4)
    v = v / np.linalg.norm(v)
    return phi1, phi2, complex(v[0], v[1]), complex(v[2], v[3])


def random_qtriple(seed=None) -> QTriple:
    """Uniform sample of the constraint manifold via the phase parametrization."""
    rng = np.random.default_rng(seed)
    return QTriple(*_balanced_q_rows(rng.uniform(0, 2 * np.pi, 1), rng.normal(size=(1, 4)))[0])


def _balanced_q_rows(phi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(N, 3) q-rows from phases phi1 = -phi2 = phi (N,) and normals v (N, 4).

    (a, c) is v normalized, the draw of ``random_s3_phases``; each row is
    q_from_z(s3_coeffs_from_phases(phi, -phi, a, c)), value for value.
    """
    # each norm as a dot product, as np.linalg.norm takes it for a single vector
    ac = (v / np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]).view(complex)
    z = _s3_z(phi, -phi, ac[:, 0], ac[:, 1])
    return _sum_one_gauge(z[:, :3] + z[:, 3:])
