import numpy as np
import pytest
from numpy.testing import assert_allclose

from qmix.groups import (
    CoeffVector,
    FiniteGroup,
    Perm,
    cyclic_group,
    left_regular,
    regular_lincomb,
    right_regular,
    symmetric_group,
)

S3 = symmetric_group(3)

# the canonical S3 element order: identity, the two 3-cycles, the three
# transpositions; every indexed coefficient formula relies on it
Q = [Perm(t) for t in [(1, 2, 3), (3, 1, 2), (2, 3, 1),
                       (1, 3, 2), (2, 1, 3), (3, 2, 1)]]

# 6x6 integer matrix with entry (x, y) equal to k+1 where Q_k = Q_x Q_y^{-1}
LS_MATRIX = np.array([
    [1, 3, 2, 4, 5, 6],
    [2, 1, 3, 6, 4, 5],
    [3, 2, 1, 5, 6, 4],
    [4, 6, 5, 1, 2, 3],
    [5, 4, 6, 3, 1, 2],
    [6, 5, 4, 2, 3, 1],
])


class TestPerm:
    def test_compose_oracle(self):
        assert Q[3] * Q[4] == Q[1]  # Q4 . Q5 = Q2 in 1-based naming

    def test_identity_compose(self):
        e = Perm.identity(3)
        for p in Q:
            assert e * p == p
            assert p * e == p

    def test_transposition_involution(self):
        t = Perm((2, 1, 3))
        assert t * t == Perm.identity(3)

    def test_inverse_oracle(self):
        assert Q[1].inverse() == Q[2]
        assert Perm.identity(4).inverse() == Perm.identity(4)
        for t in Q[3:]:
            assert t.inverse() == t  # transpositions are self-inverse

    def test_inverse_postcondition(self):
        for p in Q:
            assert p * p.inverse() == Perm.identity(3)

    def test_call_is_image(self):
        p = Perm((3, 1, 2))
        assert [p(i) for i in (1, 2, 3)] == [3, 1, 2]

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Perm((1, 1, 3))
        with pytest.raises(ValueError):
            Perm((0, 1, 2))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            Perm((1, 2)) * Perm((1, 2, 3))


class TestGroupConstruction:
    def test_s3_order_and_labels(self):
        assert S3.order == 6
        assert [p.images for p in S3.perms] == [(1, 2, 3), (3, 1, 2), (2, 3, 1),
                                                (1, 3, 2), (2, 1, 3), (3, 2, 1)]
        assert S3.identity_id == 0

    def test_symmetric_sizes(self):
        assert symmetric_group(1).order == 1
        assert symmetric_group(4).order == 24
        with pytest.raises(ValueError):
            symmetric_group(6)
        with pytest.raises(ValueError):
            symmetric_group(0)

    def test_cyclic(self):
        z2 = cyclic_group(2)
        assert z2.mul(1, 1) == 0  # X . X = I
        assert cyclic_group(1).order == 1
        z3 = cyclic_group(3)
        # element 1 has order 3
        g = 1
        for _ in range(2):
            g = z3.mul(g, 1)
            assert g != 0 or _ == 1
        assert z3.mul(z3.mul(1, 1), 1) == 0

    def test_latin_square_rejected(self):
        bad = np.array([[0, 1], [0, 1]])
        with pytest.raises(ValueError, match="Latin"):
            FiniteGroup(bad)

    def test_no_identity_rejected(self):
        # Latin square (cyclic shift pattern) without a two-sided identity
        bad = np.array([[1, 0, 2], [0, 2, 1], [2, 1, 0]])
        with pytest.raises(ValueError):
            FiniteGroup(bad)

    def test_nonassociative_loop_rejected(self):
        # order-5 loop: Latin, identity 0, every element self-inverse,
        # but (1*2)*2 = 4 while 1*(2*2) = 1
        loop = np.array([
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ])
        with pytest.raises(ValueError, match="associative"):
            FiniteGroup(loop)

    def test_equality_is_on_the_cayley_table(self):
        assert symmetric_group(3) == symmetric_group(3)
        assert S3 == FiniteGroup(S3.cayley)  # perms do not enter
        assert S3 != cyclic_group(6)
        assert S3 != symmetric_group(4)
        assert S3 != "s3"

    def test_inverses_consistent(self):
        for G in (S3, cyclic_group(5), symmetric_group(4)):
            for g in G.elements:
                assert G.mul(g, G.inv(g)) == G.identity_id
                assert G.mul(G.inv(g), g) == G.identity_id


class TestRegularRepresentations:
    def test_left_identity(self):
        assert_allclose(left_regular(S3, 0), np.eye(6))

    def test_left_regular_index_matrix(self):
        # sum_k (k+1) L_k reproduces the frozen integer pattern
        acc = sum((k + 1) * left_regular(S3, k) for k in range(6))
        assert_allclose(acc.real, LS_MATRIX, atol=0)

    def test_left_trace(self):
        for g in S3.elements:
            expect = 6.0 if g == 0 else 0.0
            assert abs(np.trace(left_regular(S3, g)) - expect) < 1e-15

    def test_left_is_homomorphism(self):
        Ls = [left_regular(S3, g) for g in S3.elements]
        for g in S3.elements:
            for h in S3.elements:
                assert_allclose(Ls[g] @ Ls[h], Ls[S3.mul(g, h)], atol=1e-15)

    def test_disjoint_supports_tile(self):
        total = sum(np.abs(left_regular(S3, g)) for g in S3.elements)
        assert_allclose(total, np.ones((6, 6)), atol=0)

    def test_hilbert_schmidt_orthogonality(self):
        Ls = [left_regular(S3, g) for g in S3.elements]
        gram = np.array([[np.trace(a.conj().T @ b) for b in Ls] for a in Ls])
        assert_allclose(gram, 6 * np.eye(6), atol=1e-14)

    def test_right_identity(self):
        assert_allclose(right_regular(S3, 0), np.eye(6))

    def test_left_right_commute(self):
        for g in S3.elements:
            L = left_regular(S3, g)
            for h in S3.elements:
                R = right_regular(S3, h)
                assert_allclose(L @ R, R @ L, atol=0)

    def test_right_regular_z2(self):
        z2 = cyclic_group(2)
        for g in z2.elements:
            assert_allclose(right_regular(z2, g),
                            left_regular(z2, z2.inv(g)).T, atol=0)

    def test_right_is_homomorphism(self):
        # the |y> -> |y g^{-1}| convention makes R a left action too
        for g in S3.elements:
            for h in S3.elements:
                lhs = right_regular(S3, g) @ right_regular(S3, h)
                assert_allclose(lhs, right_regular(S3, S3.mul(g, h)), atol=0)

    def test_invalid_element(self):
        with pytest.raises(ValueError):
            left_regular(S3, 6)


class TestCoeffVector:
    def test_indicator_identity(self):
        z = CoeffVector.indicator(S3, 0)
        assert_allclose(regular_lincomb(z), np.eye(6), atol=0)

    def test_lincomb_layout(self):
        # entry (x, y) of sum z_g L_g is z_{x y^{-1}}
        z = CoeffVector(S3, np.arange(1, 7).astype(complex))
        assert_allclose(regular_lincomb(z).real, LS_MATRIX, atol=0)

    def test_uniform_projector(self):
        z = CoeffVector(S3, np.full(6, 1 / 6, dtype=complex))
        P = regular_lincomb(z)
        assert_allclose(P, np.full((6, 6), 1 / 6), atol=1e-15)
        assert_allclose(P @ P, P, atol=1e-15)
        assert abs(np.trace(P) - 1) < 1e-14

    def test_length_checked(self):
        with pytest.raises(ValueError):
            CoeffVector(S3, np.ones(5, dtype=complex))
