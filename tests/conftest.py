import numpy as np

from qmix.states import DensityMatrix, _as_matrix


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


def commutator(A, B) -> np.ndarray:
    """[A, B]."""
    A, B = _as_matrix(A), _as_matrix(B)
    if A.shape != B.shape:
        raise ValueError("dimension mismatch")
    return A @ B - B @ A


def double_commutator(A, B, C) -> np.ndarray:
    """[A, [B, C]]."""
    return commutator(A, commutator(B, C))


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
