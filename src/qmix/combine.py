"""Binary and ternary unitary mixing of density matrices.

Both operations conjugate rho_1 (x) ... (x) rho_n by a unitary element
U = sum_g z_g Q_g of the S_n group algebra, Q_g permuting the tensor
factors, and keep the first factor: the binary partial swap is n = 2,
the ternary operation n = 3, and S3 coefficients are ``CoeffVector``s
over ``symmetric_group(3)``.  The ternary evaluators, cross-checked in
the tests:

* ``combine3_bruteforce`` — permute tensor factors of rho1 (x) rho2 (x) rho3, keep factor 1;
* ``combine3_magic``      — the explicit 36-term operator expansion;
* ``combine3_closed``     — the nine-term closed form in the q-parametrization.

``combine2_bruteforce`` is the same permutation channel at n = 2.  The closed form and the binary
mix also run on (..., d, d) stacks, of which the single-state entry points are batches of one.
Both take Hermitian inputs and form six matrix products (the binary mix one), the mirrored terms
being their adjoints, so exactly Hermitian inputs give exactly Hermitian outputs.

The q-triple (sum |q_i|^2 = 1, sum q_i = 1), its polar (p, delta) form,
and nested two-level binary expressions are interconvertible here, with
the vanishing-cosine criterion deciding nestedness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from ._serial import complexes, pairs, reals
from .groups import CoeffVector, FiniteGroup, _is_over, symmetric_group
from .irreps import _S3, _S3_IRREPS, _factor_axes, _unit_ac, extract_blocks, tensor_rep
from .states import DensityMatrix, _matmul, _require
from .states import partial_trace, tensor  # noqa: F401  bench/spans.py wraps them at this binding

__all__ = [
    "QTriple",
    "PDelta",
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
    "independence_residual",
    "q_from_z",
    "z_from_q",
    "pdelta_from_q",
    "q_from_pdelta",
    "third_order_reduce",
    "nested_expand",
    "nested_params_for_weights",
    "delta_from_nested",
    "nested_from_delta",
    "verify_real_imag_param",
    "random_qtriple",
    "wrap_angle",
    "cos_vanishes",
]

_CONSTRAINT_TOL = 1e-10
_NESTED_COS_TOL = 1e-9
_SWAP_TOL = 1e-9
_MIN_WEIGHT = 1e-15  # below it a weight counts as zero and its phase is undefined

_S2 = symmetric_group(2)  # identity, then the swap


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
    with np.errstate(over="ignore"):  # an overflow is inf, which every check fails
        return (np.abs(q) ** 2).sum(axis=-1), q.sum(axis=-1)


def _closed_rows(q) -> np.ndarray:
    """q as a complex (..., 3) array, each row checked as a QTriple in the sum-one gauge."""
    q = np.asarray(q, dtype=complex)
    norm, total = _closure_sums(q)
    _require(np.maximum(abs(norm - 1), abs(total - 1)), _CONSTRAINT_TOL,
             "rows are not q-triples with sum |q_i|^2 = 1 and sum q_i = 1")
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
        _require(abs(norm - 1), _CONSTRAINT_TOL, "sum |q_i|^2 = {:.12g}, not 1", quote=norm)
        _require(abs(abs(total) - 1), _CONSTRAINT_TOL, "|q1+q2+q3| = {:.12g}, not 1",
                 quote=abs(total))
        if total != 1:
            # np.hypot is what abs() of one complex computes; the array abs may round differently
            q = q * (np.conj(total) / np.hypot(total.real, total.imag))
        for name, value in zip(("q1", "q2", "q3"), q.tolist()):
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

    Stores delta_12 = phi_1 - phi_2 etc. as given, unwrapped; ``pdelta_from_q``
    gives them in [-pi, pi).  The deltas must sum to zero mod 2*pi, and the
    weighted cosine sum sqrt(p1 p2) cos d12 + sqrt(p2 p3) cos d23 +
    sqrt(p3 p1) cos d31 must vanish — together these make the triple realizable.
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
        with np.errstate(invalid="ignore", over="ignore"):  # inf wraps to NaN, which fails
            total = d.sum()
            wrapped = abs(wrap_angle(total))
        _require(wrapped, _CONSTRAINT_TOL, "delta sum {:.12g} is not 0 mod 2*pi", quote=total)
        r = np.sqrt(np.maximum(p, 0.0))
        cos_sum = (r[0] * r[1] * np.cos(d[0]) + r[1] * r[2] * np.cos(d[1])
                   + r[2] * r[0] * np.cos(d[2]))
        _require(abs(cos_sum), _CONSTRAINT_TOL, "weighted cosine sum {:.3e} does not vanish",
                 quote=cos_sum)
        object.__setattr__(self, "p", tuple(float(v) for v in p))
        object.__setattr__(self, "deltas", tuple(float(v) for v in d))

    def to_json(self) -> dict:
        return {"p": list(self.p), "deltas": list(self.deltas)}

    @classmethod
    def from_json(cls, data) -> "PDelta":
        return cls(reals(data["p"], (3,), "p"), reals(data["deltas"], (3,), "deltas"))


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


def _swap_coeffs(lam: float, sign: int) -> np.ndarray:
    """The partial swap as coefficients over S2: (sqrt(lam), sign * i sqrt(1-lam))."""
    if not 0 <= lam <= 1:
        raise ValueError("lambda must lie in [0, 1]")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return np.array([np.sqrt(lam), sign * 1j * np.sqrt(1 - lam)])


def partial_swap_unitary(lam: float, d: int, sign: int = +1) -> np.ndarray:
    """sqrt(lam) I + sign * i sqrt(1-lam) SWAP on two qudits."""
    return sum(zg * tensor_rep(g, d) for zg, g in zip(_swap_coeffs(lam, sign), _S2.perms))


def combine2(rho1: DensityMatrix, rho2: DensityMatrix, lam: float, sign: int = +1) -> DensityMatrix:
    """Binary mix: lam*rho1 + (1-lam)*rho2 + sign*sqrt(lam(1-lam)) i[rho2, rho1]."""
    return DensityMatrix(combine2_stacked(*_mats(rho1, rho2), [lam], [sign])[0])


def combine2_stacked(r1: np.ndarray, r2: np.ndarray, lam, sign) -> np.ndarray:
    """``combine2`` on (..., d, d) state stacks, with (...) lam and sign broadcast against them.

    Returns the (..., d, d) outputs unvalidated (see ``states.density_spectra``).  Hermitian
    inputs are assumed: i[rho2, rho1] = i(p - p^dag) from the one product p = rho2 rho1.
    """
    lam = np.asarray(lam, dtype=float)[..., None, None]
    sign = np.asarray(sign)[..., None, None]
    if not ((0 <= lam) & (lam <= 1)).all():
        raise ValueError("lambda must lie in [0, 1]")
    if not ((sign == 1) | (sign == -1)).all():
        raise ValueError("sign must be +1 or -1")
    p = _matmul(r2, r1)
    return (lam * r1 + (1 - lam) * r2
            + sign * np.sqrt(lam * (1 - lam)) * 1j * (p - np.conj(np.swapaxes(p, -1, -2))))


def combine2_bruteforce(rho1: DensityMatrix, rho2: DensityMatrix, lam: float,
                        sign: int = +1) -> DensityMatrix:
    """Same channel evaluated the long way: permute the factors by the partial swap, keep factor 1."""
    return _permutation_channel([rho1, rho2], _swap_coeffs(lam, sign), _S2)


def partial_swap_params(z1: complex, z2: complex) -> tuple[float, float, int]:
    """Recover (phi, lam, sign) with z1 = e^{i phi} sqrt(lam), z2 = sign i e^{i phi} sqrt(1-lam).

    Any unitary z1*I + z2*SWAP admits such a form; raises ValueError if
    the pair is not unitary (|z1+z2| and |z1-z2| must both be 1).
    """
    _require(abs(np.abs([z1 + z2, z1 - z2]) - 1), _SWAP_TOL, "z1*I + z2*SWAP is not unitary")
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


def _permutation_channel(rhos: list[DensityMatrix], coeffs: np.ndarray,
                         group: FiniteGroup) -> DensityMatrix:
    """Tr_{2..n} U (rho_1 (x) ... (x) rho_n) U^dag, U = sum_g coeffs_g Q_g over group = S_n."""
    mats = _mats(*rhos)
    terms = list(zip(coeffs, (_factor_axes(p) for p in group.perms)))
    out = 0
    for zg, g in terms:
        for zh, h in terms:
            term = mats[0]  # contracted factor by factor: the product state is never formed
            for subscripts, m in zip(_term_plan(g, h), mats[1:]):
                term = np.einsum(subscripts, term, m)
            out = out + zg * np.conj(zh) * term
    return DensityMatrix(out)


@cache
def _term_plan(g: tuple[int, ...], h: tuple[int, ...]) -> tuple[str, ...]:
    """Two-operand einsum subscripts taking term (g, h) of the channel from its factors in turn."""
    rows, cols = "abcdefgh"[:len(g)], "zbcdefgh"[:len(g)]
    # the term's row axes permuted by g, its column axes by h; slots 2..n share labels (the trace)
    labels = [rows[g.index(m)] + cols[h.index(m)] for m in range(len(g))]
    plan, held = [], labels[0]
    for k in range(1, len(g)):
        needed = "az" + "".join(labels[k + 1:])  # the output's labels and the later factors'
        keep = "".join(c for c in "a" + cols if c in held + labels[k] and c in needed)
        plan.append(f"{held},{labels[k]}->{keep}")
        held = keep
    return tuple(plan)


def _s3_coeffs(z: CoeffVector) -> np.ndarray:
    """The six coefficients of z; ValueError unless z is a vector over S3."""
    if not _is_over(z, _S3):
        raise ValueError("need a coefficient vector over S3")
    return z.coeffs


def combine3_bruteforce(rho1: DensityMatrix, rho2: DensityMatrix, rho3: DensityMatrix,
                        z: CoeffVector) -> DensityMatrix:
    """Permute tensor factors of rho1 (x) rho2 (x) rho3 by U = sum_i z_i Q_i, keep factor 1."""
    coeffs = _s3_coeffs(z)
    if rho1.dim > 8:
        raise ValueError("brute force capped at local dimension 8")
    extract_blocks(z, _S3_IRREPS)
    return _permutation_channel([rho1, rho2, rho3], coeffs, _S3)


def combine3_magic(rho1: DensityMatrix, rho2: DensityMatrix, rho3: DensityMatrix,
                   z: CoeffVector) -> DensityMatrix:
    """The 36-term expansion of the ternary channel.

    Works for arbitrary coefficients; the overlap-weighted first-order
    terms survive unless Re(z_i conj(z_{i+3})) = 0, which is exactly the
    state-independence condition on the weights.
    """
    z1, z2, z3, z4, z5, z6 = _s3_coeffs(z)
    r1, r2, r3 = _mats(rho1, rho2, rho3)
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
    arithmetic, so a row does not depend on the others in its stack.  The inputs are taken to be
    Hermitian: six matrix products give all twelve terms, the mirrored ones as adjoints (rho_j
    rho_i = (rho_i rho_j)^dag), and exactly Hermitian inputs give exactly Hermitian outputs.  The
    products go through ``states._matmul``, elementwise column sums below d = 4.
    """
    q = _closed_rows(q)[..., None, None]
    w = np.abs(q) ** 2
    re, im = q.real, q.imag
    x12, x23, x31 = (re[..., i, :, :] * re[..., j, :, :] + im[..., i, :, :] * im[..., j, :, :]
                     for i, j in ((0, 1), (1, 2), (2, 0)))
    s12, s23, s31 = (im[..., i, :, :] * re[..., j, :, :] - re[..., i, :, :] * im[..., j, :, :]
                     for i, j in ((0, 1), (1, 2), (2, 0)))
    p12, p23, p31 = _matmul(r1, r2), _matmul(r2, r3), _matmul(r3, r1)
    t231, t312, t123 = _matmul(p23, r1), _matmul(p31, r2), _matmul(p12, r3)
    a12, a23, a31, a231, a312, a123 = (np.conj(np.swapaxes(p, -1, -2))
                                       for p in (p12, p23, p31, t231, t312, t123))
    out = w[..., 0, :, :] * r1 + w[..., 1, :, :] * r2 + w[..., 2, :, :] * r3
    out = out + s12 * 1j * (p12 - a12) + s23 * 1j * (p23 - a23) + s31 * 1j * (p31 - a31)
    return out + (x12 * (t231 + a231) + x23 * (t312 + a312) + x31 * (t123 + a123))


def _closed_bloch(r: np.ndarray, q) -> np.ndarray:
    """``combine3_closed_stacked`` on (3, 3, ...) qubit Bloch vectors r[:, l] and (N, 3) or (3,) q.

    With its w, s and x at the cyclic pair (m, m + 1), X = sum x and D_l = r_{l+1}.r_{l+2}, the
    (3, ...) output is sum_l c_l r_l - sum_m s_m r_m x r_{m+1}, all three l at once, with
    c_l = w_l + (X + D_l (x_l + x_{l+2} - x_{l+1}))/2.
    """
    q = _closed_rows(q).T
    re, im = q.real, q.imag
    re1, im1 = re[[1, 2, 0]], im[[1, 2, 0]]
    x, s = re * re1 + im * im1, im * re1 - re * im1
    r1, r2 = r[:, [1, 2, 0]], r[:, [2, 0, 1]]
    dots = r1[0] * r2[0] + r1[1] * r2[1] + r1[2] * r2[2]
    c = re * re + im * im + (x.sum(axis=0) + dots * (x + x[[2, 0, 1]] - x[[1, 2, 0]])) / 2
    cross = np.stack([r[1] * r1[2] - r[2] * r1[1], r[2] * r1[0] - r[0] * r1[2],
                      r[0] * r1[1] - r[1] * r1[0]])
    return (c * r - s * cross).sum(axis=1)


def _binary_bloch(r: np.ndarray, lam, sign) -> np.ndarray:
    """``combine2_stacked`` on (3, 2, ...) Bloch vectors: lam r1 + (1 - lam) r2 + t r1 x r2.

    t = sign sqrt(lam (1 - lam)); lam and sign are taken as valid."""
    (x1, y1, z1), (x2, y2, z2) = r[:, 0], r[:, 1]
    t = sign * np.sqrt(lam * (1 - lam))
    return (lam * r[:, 0] + (1 - lam) * r[:, 1]
            + t * np.stack([y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2]))


# ---------------------------------------------------------------------------
# parametrization conversions


def q_from_z(z: CoeffVector) -> QTriple:
    """Pair up coefficients over S3: q_k = z_k + z_{k+3}.

    Requires the split gauge (z1..z3 real, z4..z6 imaginary); otherwise
    the pairing loses information and GaugeViolation is raised.  The
    result is rotated into the sum-one gauge by the QTriple constructor.
    """
    z = _s3_coeffs(z)
    worst = np.abs(np.concatenate([z[:3].imag, z[3:].real])).max()
    _require(worst, _CONSTRAINT_TOL, lambda v: GaugeViolation(
        f"coefficients not in the real/imaginary gauge (residual {v:.3e})"))
    q = z[:3] + z[3:]
    return QTriple(*q)


def z_from_q(q: QTriple) -> CoeffVector:
    """Split a q-triple back into coefficients over S3 (Re q_k, then i Im q_k)."""
    qa = q.as_array()
    return CoeffVector(_S3, np.concatenate([qa.real.astype(complex), 1j * qa.imag]))


def independence_residual(z: CoeffVector) -> float:
    """Max |Re(z_i conj(z_{i+3}))| over S3; zero when first-order weights are state-independent."""
    z = _s3_coeffs(z)
    return float(max(abs(np.real(z[i] * np.conj(z[i + 3]))) for i in range(3)))


def wrap_angle(x):
    """Angle(s) mapped into [-pi, pi); works elementwise on arrays."""
    return (x + np.pi) % (2 * np.pi) - np.pi


def _phase_deltas(q: np.ndarray) -> np.ndarray:
    """Phase differences wrap(arg q_k - arg q_{k+1}), cyclic over the last axis of (..., 3) q."""
    ph = np.angle(q)
    return wrap_angle(ph - ph[..., [1, 2, 0]])


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
    if p.min() < _MIN_WEIGHT:
        raise DegenerateWeight(p)
    return PDelta(tuple(p), tuple(float(d) for d in _phase_deltas(qa)))


def q_from_pdelta(pd: PDelta) -> QTriple:
    """Rebuild the q-triple from weights and phase differences (gauge fixed by QTriple)."""
    p = np.asarray(pd.p, dtype=float)
    d12, _, d31 = pd.deltas
    phases = np.array([0.0, -d12, d31])
    q = np.exp(1j * phases) * np.sqrt(np.maximum(p, 0.0))
    return QTriple(*q)


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
    _require(abs(zsum), _CONSTRAINT_TOL,
             lambda v: CoefficientSumNonzero(f"real overlaps sum to {v:.3e}"), quote=zsum)
    return x, y


# ---------------------------------------------------------------------------
# nested two-level binary expressions


def nested_expand(spec: NestedSpec, rho1: DensityMatrix, rho2: DensityMatrix,
                  rho3: DensityMatrix) -> DensityMatrix:
    """Evaluate the two-level binary expression outer (+/-)_a (left (+/-)_a' right)."""
    outer, left, right = ((rho1, rho2, rho3) * 2)[spec.ordering - 1:spec.ordering + 2]
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
    if p.min() < _MIN_WEIGHT:
        raise DegenerateWeight(p)
    a, a_prime = nested_params_for_weights(p, spec.ordering)
    _require(np.abs([a - spec.a, a_prime - spec.a_prime]), 1e-9, "spec weights do not reproduce p")
    # (d_BC, d_CA, d_AB) with A the outer state, rolled into (d12, d23, d31)
    k = spec.ordering % 3
    triplet = _nested_delta_triplet(p[k], p[(k + 1) % 3], spec.s, spec.s_prime)
    return PDelta(tuple(p), tuple(np.roll(triplet, k)))


def nested_from_delta(pd: PDelta) -> NestedSpec:
    """Recover the nested expression from a (p, delta) point, if one exists.

    A point is nested exactly when some cos(delta_ij) vanishes; the
    vanishing slot fixes the ordering and the signs of the other sines
    fix the +/- bits.  Raises NotNested otherwise.
    """
    p = np.asarray(pd.p, dtype=float)
    if p.min() < _MIN_WEIGHT:
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


def random_qtriple(seed=None) -> QTriple:
    """Uniform sample of the constraint manifold: one row of ``_balanced_q_rows``."""
    rng = np.random.default_rng(seed)
    return QTriple(*_balanced_q_rows(rng.uniform(0, 2 * np.pi, 1), rng.normal(size=(1, 4)))[0])


def _balanced_q_rows(phi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(N, 3) q-rows from phases phi1 = -phi2 = phi (N,) and normals v (N, 4): the S^3 chart.

    (a, c) is v normalized, Haar-uniform on the unit sphere of C^2, and
    (a', c') = e^{-i phi} (a, c).  Row by row, q = (1 + 2a', 1 - a' - sqrt(3) c',
    1 - a' + sqrt(3) c') / 3: in the sum-one gauge, onto the q-triples, and
    q_from_z(irreps.s3_coeffs_from_phases(phi, -phi, a, c)) up to rounding.
    """
    a, c = (_unit_ac(v) * np.exp(-1j * phi)[:, None]).T
    r3c = np.sqrt(3) * c
    return np.stack([1 + 2 * a, 1 - a - r3c, 1 - a + r3c], axis=-1) / 3
