"""Derandomized properties of the S^3 chart and of the ternary evaluators on its q-rows.

``combine._balanced_q_rows`` maps a phase phi and a normal row v to the
q-triple (1 + 2a', 1 - a' - sqrt(3) c', 1 - a' + sqrt(3) c') / 3, where
(a', c') = e^{-i phi} (a, c) and (a, c) is v scaled to norm 1.  Its inverse,
written here only, is a' = (3 q1 - 1) / 2 and c' = sqrt(3) (q3 - q2) / 2.
The evaluators are checked on chart-drawn q-rows against each other, at
d = 1, 2, 3, 4 and 8, on full-rank, pure, maximally mixed and diagonal states.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from qmix.combine import (QTriple, _balanced_q_rows, _binary_bloch, _closed_bloch, _closed_rows,
                          combine2_stacked, combine3_bruteforce, combine3_closed,
                          combine3_closed_stacked, combine3_magic, q_from_z, z_from_q)
from qmix.irreps import s3_coeffs_from_phases
from qmix.states import DensityMatrix, _bloch_rows, _bloch_spectra, _gram_bloch, _gram_states

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

PHASES = st.floats(0, 2 * np.pi, exclude_max=True)
KINDS = ("gram", "pure", "mixed", "diagonal")


@st.composite
def normals(draw):
    """A row (Re a, Im a, Re c, Im c) of norm 1e-6 .. 1e6, with a = 0 or c = 0 now and then."""
    v = np.array(draw(st.lists(st.floats(-1, 1), min_size=4, max_size=4)))
    zero = draw(st.sampled_from([None, "a", "c"]))
    if zero == "a":
        v[:2] = 0.0
    elif zero == "c":
        v[2:] = 0.0
    norm = np.linalg.norm(v)
    assume(norm > 1e-3)
    return v / norm * 10.0 ** draw(st.floats(-6, 6))


def unit_ac(v: np.ndarray) -> tuple[complex, complex]:
    u = v / np.linalg.norm(v)
    return complex(u[0], u[1]), complex(u[2], u[3])


@PROPERTY
@given(rows=st.lists(st.tuples(PHASES, normals()), min_size=1, max_size=8))
@example(rows=[(1e-12, np.array([0.0, 0.0, 0.0, 1.0])), (0.0, np.array([1e-6, 0.0, 0.0, 0.0]))])
def test_chart_rows(rows):
    phi = np.array([p for p, _ in rows])
    v = np.array([n for _, n in rows])
    q = _balanced_q_rows(phi, v)
    _closed_rows(q)
    for k, (p, n) in enumerate(rows):
        # _draw slices rows out of a whole block, so a row cannot depend on its neighbours
        assert_array_equal(_balanced_q_rows(phi[k:k + 1], v[k:k + 1])[0], q[k])
        a, c = unit_ac(n)
        via_z = q_from_z(s3_coeffs_from_phases(p, -p, a, c)).as_array()
        assert np.abs(q[k] - via_z).max() <= 1e-15
        inverse = np.array([(3 * q[k, 0] - 1) / 2, np.sqrt(3) * (q[k, 2] - q[k, 1]) / 2])
        assert np.abs(inverse - np.exp(-1j * p) * np.array([a, c])).max() <= 1e-15


def density(kind: str, d: int, seed: int) -> np.ndarray:
    """An exactly Hermitian d x d density matrix of the given kind."""
    rng = np.random.default_rng(seed)
    if kind == "gram":
        G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        M = G @ G.conj().T
        return (M + M.conj().T) / (2 * np.trace(M).real)
    if kind == "pure":
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())
    if kind == "mixed":
        return np.eye(d, dtype=complex) / d
    p = rng.uniform(size=d)
    return np.diag(p / p.sum()).astype(complex)


@st.composite
def samples(draw, d):
    """Three states of drawn kinds at dimension d, and a chart-drawn q-row."""
    rhos = [density(draw(st.sampled_from(KINDS)), d, draw(st.integers(0, 2**32 - 1)))
            for _ in range(3)]
    q = _balanced_q_rows(np.array([draw(PHASES)]), draw(normals())[None])[0]
    return rhos, q


@PROPERTY
@given(data=st.data(), d=st.sampled_from([1, 2, 3, 4, 8]))
def test_evaluators_agree_on_chart_rows(data, d):
    rhos, q = data.draw(samples(d))
    states, qt = [DensityMatrix(r) for r in rhos], QTriple(*q)
    closed = combine3_closed(*states, qt).mat
    z = z_from_q(qt)
    assert np.abs(closed - combine3_magic(*states, z).mat).max() <= 1e-10
    assert np.abs(closed - combine3_bruteforce(*states, z).mat).max() <= 1e-10


@PROPERTY
@given(data=st.data(), d=st.sampled_from([1, 2, 3, 4, 8]), count=st.integers(1, 6))
def test_stacked_closed_row_equals_its_batch_of_one(data, d, count):
    drawn = [data.draw(samples(d)) for _ in range(count)]
    r1, r2, r3 = (np.array([rhos[k] for rhos, _ in drawn]) for k in range(3))
    q = np.array([q for _, q in drawn])
    out = combine3_closed_stacked(r1, r2, r3, q)
    for k in range(count):
        s = slice(k, k + 1)
        assert_array_equal(combine3_closed_stacked(r1[s], r2[s], r3[s], q[s])[0], out[k])


@PROPERTY
@given(data=st.data(), count=st.integers(1, 6))
@example(data=None, count=0)
def test_bloch_forms_match_the_matrix_closed_forms(data, count):
    # qubits of every kind; a row equals its batch of one bitwise
    if data is None:  # a pure, a maximally mixed and a full-rank qubit at a zero weight
        zero_weight = _balanced_q_rows(np.zeros(1), np.array([[-0.5, 0.0, np.sqrt(3) / 2, 0.0]]))
        drawn = [([density(k, 2, 1) for k in ("pure", "mixed", "gram")], zero_weight[0])]
    else:
        drawn = [data.draw(samples(2)) for _ in range(count)]
    rhos = np.array([r for r, _ in drawn])  # (N, 3, 2, 2)
    q = np.array([q for _, q in drawn])
    by_state = np.moveaxis(rhos, 1, 0)  # (3, N, 2, 2)
    r = _bloch_rows(by_state)  # (3, 3, N)
    out = _closed_bloch(r, q)
    matrix = combine3_closed_stacked(*by_state, q)
    assert np.abs(out - _bloch_rows(matrix)).max() <= 1e-15
    lam = np.linspace(0, 1, len(drawn))
    sign = np.where(np.arange(len(drawn)) % 2, -1, 1)
    two = _binary_bloch(r[:, :2], lam, sign)
    matrix = combine2_stacked(rhos[:, 0], rhos[:, 1], lam, sign)
    assert np.abs(two - _bloch_rows(matrix)).max() <= 1e-15
    for k in range(len(drawn)):
        s = slice(k, k + 1)
        assert_array_equal(_closed_bloch(r[..., s], q[s])[:, 0], out[:, k])
        assert_array_equal(_binary_bloch(r[:, :2, s], lam[s], sign[s])[:, 0], two[:, k])


@PROPERTY
@given(x=st.lists(st.floats(-1e3, 1e3), min_size=16, max_size=16), rank=st.sampled_from([1, 2]))
@example(x=[1.0] + [0.0] * 9 + [1.0] + [0.0] * 5, rank=1)  # |0> and |1>: G has a zero row
@example(x=[1.0, 0.0, 0.0, 1.0] + [0.0] * 4 + [0.0, 1.0, 1.0, 0.0] + [0.0] * 4, rank=2)  # I/2
def test_bloch_draw_matches_the_gram_states(x, rank):
    # two samples of normals (part, row, column): pure at rank 1, full rank or I/2 at rank 2
    x = np.array(x).reshape(2, 2, 2, 2)[..., :rank]
    assume(np.abs(x).max(axis=(1, 2, 3)).min() > 1e-3)
    r = _gram_bloch(x)
    assert np.abs(r - _bloch_rows(_gram_states(x))).max() <= 1e-15
    for k in range(2):
        assert_array_equal(_gram_bloch(x[k:k + 1])[:, 0], r[:, k])
        assert_array_equal(_bloch_spectra(r[:, k:k + 1])[0], _bloch_spectra(r)[k])
