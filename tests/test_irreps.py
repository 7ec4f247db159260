import numpy as np
import pytest
from numpy.testing import assert_allclose

from qmix.groups import CoeffVector, Perm, cyclic_group, regular_lincomb, symmetric_group
from qmix.irreps import (
    BlockUnitaries,
    NonUnitaryBlock,
    NotBlockDiagonal,
    block_decompose,
    extract_blocks,
    flat_unitary_search,
    fourier_matrix,
    haar_unitary,
    irreps_cyclic,
    irreps_from_json,
    irreps_s3,
    irreps_to_json,
    random_block_unitaries,
    s3_two_dim_alt,
    synthesize_coeffs,
    tensor_rep,
)

S3 = symmetric_group(3)
IR3 = irreps_s3()


def unitarity_residual(U):
    U = np.asarray(U)
    return np.abs(U @ U.conj().T - np.eye(U.shape[0])).max()


class TestIrrepSets:
    def test_s3_structure(self):
        dims = [r.dim for r in IR3]
        assert dims == [1, 2, 1] or sorted(dims) == [1, 1, 2]
        assert sum(d * d for d in dims) == 6

    def test_two_dim_product_oracle(self):
        two = IR3.irreps[2]
        assert two.dim == 2
        assert_allclose(two(3) @ two(4), two(1), atol=1e-15)  # tau(Q4) tau(Q5) = tau(Q2)

    def test_homomorphism_everywhere(self):
        for r in IR3:
            for g in S3.elements:
                for h in S3.elements:
                    assert_allclose(r(g) @ r(h), r(S3.mul(g, h)), atol=1e-14)

    def test_characters_match_alt_basis(self):
        alt = s3_two_dim_alt()
        std = IR3.irreps[2]
        for g in S3.elements:
            assert abs(np.trace(std(g)) - np.trace(alt(g))) < 1e-14

    def test_alt_basis_is_homomorphism(self):
        alt = s3_two_dim_alt()
        for g in S3.elements:
            for h in S3.elements:
                assert_allclose(alt(g) @ alt(h), alt(S3.mul(g, h)), atol=1e-14)

    def test_cyclic_characters(self):
        z2 = irreps_cyclic(2)
        chars = np.array([[r(g)[0, 0] for g in range(2)] for r in z2])
        assert_allclose(chars, [[1, 1], [1, -1]], atol=1e-15)
        assert len(irreps_cyclic(1).irreps) == 1

    def test_json_round_trip(self):
        data = irreps_to_json(IR3)
        again = irreps_from_json(data, S3)
        for a, b in zip(IR3, again):
            assert a.label == b.label
            assert_allclose(a.matrices, b.matrices, atol=0)


class TestFourier:
    def test_z2_hadamard(self):
        F = fourier_matrix(irreps_cyclic(2))
        assert_allclose(F, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)

    def test_trivial_group(self):
        F = fourier_matrix(irreps_cyclic(1))
        assert_allclose(F, [[1]], atol=0)

    @pytest.mark.parametrize("irreps", [irreps_cyclic(2), irreps_cyclic(3), IR3])
    def test_unitary(self, irreps):
        F = fourier_matrix(irreps)
        assert unitarity_residual(F) < 1e-10

    def test_l_blocks_are_irrep_matrices(self):
        from qmix.groups import left_regular
        for g in S3.elements:
            blocks = block_decompose(left_regular(S3, g), IR3)
            for B, r in zip(blocks, IR3):
                assert_allclose(B, r(g), atol=1e-12)

    def test_identity_blocks(self):
        blocks = block_decompose(np.eye(6, dtype=complex), IR3)
        for B, r in zip(blocks, IR3):
            assert_allclose(B, np.eye(r.dim), atol=1e-12)

    def test_generic_matrix_rejected(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        with pytest.raises(NotBlockDiagonal):
            block_decompose(M, IR3)


class TestSynthesis:
    def test_element_blocks_give_indicator(self):
        for g0 in S3.elements:
            z = synthesize_coeffs(BlockUnitaries.from_element(IR3, g0), IR3)
            expect = np.zeros(6)
            expect[g0] = 1
            assert_allclose(z.coeffs, expect, atol=1e-14)

    def test_identity_blocks_give_identity_indicator(self):
        z = synthesize_coeffs(BlockUnitaries.identity(IR3), IR3)
        assert_allclose(z.coeffs, CoeffVector.indicator(S3, 0).coeffs, atol=1e-14)

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            blocks = random_block_unitaries(IR3, rng)
            z = synthesize_coeffs(blocks, IR3)
            back = extract_blocks(z, IR3)
            for B, U in zip(back.blocks, blocks.blocks):
                assert_allclose(B, U, atol=1e-12)
            assert unitarity_residual(regular_lincomb(z)) < 1e-10

    def test_non_unitary_block_rejected(self):
        bad = BlockUnitaries((np.array([[2.0]]), np.array([[1.0]]), np.eye(2) * 1j))
        with pytest.raises(NonUnitaryBlock):
            synthesize_coeffs(bad, IR3)

    def test_uniform_coeffs_fail_extraction(self):
        z = CoeffVector(S3, np.full(6, 1 / 6, dtype=complex))
        with pytest.raises(NonUnitaryBlock) as info:
            extract_blocks(z, IR3)
        # the sign block sums characters (1,1,1,-1,-1,-1)/6 to zero
        assert info.value.label in ("sign", "standard")

    def test_indicator_extracts_to_irrep_matrices(self):
        for g in S3.elements:
            blocks = extract_blocks(CoeffVector.indicator(S3, g), IR3)
            for B, r in zip(blocks.blocks, IR3):
                assert_allclose(B, r(g), atol=1e-14)

    def test_z2_synthesis_formula(self):
        z2 = irreps_cyclic(2)
        rng = np.random.default_rng(7)
        for _ in range(20):
            p1, p2 = rng.uniform(0, 2 * np.pi, 2)
            blocks = BlockUnitaries((np.array([[np.exp(1j * p1)]]),
                                     np.array([[np.exp(1j * p2)]])))
            z = synthesize_coeffs(blocks, z2)
            assert abs(z.coeffs[0] - (np.exp(1j * p1) + np.exp(1j * p2)) / 2) < 1e-14
            assert abs(z.coeffs[1] - (np.exp(1j * p1) - np.exp(1j * p2)) / 2) < 1e-14
            # z_I I + z_X X is e^{i phi} (cos a I + i sin a X) with
            # phi = (p1+p2)/2, a = (p1-p2)/2
            phi, al = (p1 + p2) / 2, (p1 - p2) / 2
            U = z.coeffs[0] * np.eye(2) + z.coeffs[1] * np.array([[0, 1], [1, 0]])
            expect = np.exp(1j * phi) * (np.cos(al) * np.eye(2)
                                         + 1j * np.sin(al) * np.array([[0, 1], [1, 0]]))
            assert_allclose(U, expect, atol=1e-12)
            assert unitarity_residual(U) < 1e-12


class TestTensorRep:
    def test_identity(self):
        assert_allclose(tensor_rep(Perm.identity(3), 2), np.eye(8), atol=0)

    def test_swap_4x4(self):
        S = tensor_rep(Perm((2, 1)), 2)
        expect = np.zeros((4, 4))
        expect[0, 0] = expect[3, 3] = 1
        expect[1, 2] = expect[2, 1] = 1
        assert_allclose(S, expect, atol=0)

    def test_cycle_moves_product_vectors(self):
        rng = np.random.default_rng(3)
        psis = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(3)]
        big = np.kron(np.kron(psis[0], psis[1]), psis[2])
        Q2 = tensor_rep(Perm((3, 1, 2)), 3)
        moved = np.kron(np.kron(psis[1], psis[2]), psis[0])
        assert_allclose(Q2 @ big, moved, atol=1e-12)

    def test_homomorphism(self):
        mats = [tensor_rep(S3.perms[g], 2) for g in S3.elements]
        for g in S3.elements:
            for h in S3.elements:
                assert_allclose(mats[g] @ mats[h], mats[S3.mul(g, h)], atol=0)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            tensor_rep(Perm.identity(3), 17)  # 17^3 > 4096

    def test_regular_embedding(self):
        # span of Q_pi |1,2,3> carries the left regular representation
        d = 3
        basis = np.eye(d)
        ref = np.kron(np.kron(basis[0], basis[1]), basis[2])
        vecs = np.array([tensor_rep(S3.perms[g], d) @ ref for g in S3.elements])
        from qmix.groups import left_regular
        for s in S3.elements:
            Qs = tensor_rep(S3.perms[s], d)
            mat_elems = vecs.conj() @ (Qs @ vecs.T)  # [a,b] = <Psi_a|Q_s|Psi_b>
            assert_allclose(mat_elems, left_regular(S3, s), atol=1e-13)


class TestCorUnitary:
    def test_tensor_lincomb_unitary(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            z = synthesize_coeffs(random_block_unitaries(IR3, rng), IR3)
            for d in (1, 2, 3):
                U = sum(z.coeffs[g] * tensor_rep(S3.perms[g], d) for g in S3.elements)
                assert unitarity_residual(U) < 1e-10


@pytest.fixture(scope="module")
def exact_flat_set():
    """Unitary S3 vectors with sqrt(6) z_g = e^{i pi k/6}, k in {+-1, +-2, +-4, +-5}, and
    det(standard block) = 1, the slice the (phi1, phi2, a, c) parametrization covers.

    Enumerates all 8^6 phase patterns at once.
    """
    ks = np.array([1, 2, 4, 5, -1, -2, -4, -5])
    grid = np.stack(np.meshgrid(*[ks] * 6, indexing="ij"), axis=-1).reshape(-1, 6)
    Z = np.exp(1j * np.pi * grid / 6) / np.sqrt(6)
    keep = np.ones(len(Z), dtype=bool)
    for r in IR3:
        B = np.einsum("ng,gjk->njk", Z, r.matrices)
        keep &= np.abs(B @ B.conj().transpose(0, 2, 1) - np.eye(r.dim)).max(axis=(1, 2)) <= 1e-10
    std = np.einsum("ng,gjk->njk", Z, IR3.irreps[2].matrices)
    keep &= np.abs(np.linalg.det(std) - 1) <= 1e-10
    return Z[keep]


class TestFlatSearch:
    def test_exact_set_has_72_points(self, exact_flat_set):
        assert len(exact_flat_set) == 72

    @pytest.mark.parametrize("seed", [0, 1])
    def test_solutions_lie_in_the_exact_set(self, exact_flat_set, seed):
        found = flat_unitary_search(IR3, 60, seed)
        assert found
        for z in found:
            assert np.abs(exact_flat_set - z.coeffs).max(axis=1).min() <= 1e-12

    def test_finds_flat_unitaries(self):
        found = flat_unitary_search(IR3, attempts=6, seed=3)
        assert len(found) >= 1
        target = 1 / np.sqrt(6)
        for z in found:
            assert np.abs(np.abs(z.coeffs) - target).max() < 1e-8
            assert unitarity_residual(regular_lincomb(z)) < 1e-10

    def test_deterministic(self):
        a = flat_unitary_search(IR3, attempts=4, seed=11)
        b = flat_unitary_search(IR3, attempts=4, seed=11)
        assert len(a) == len(b)
        for za, zb in zip(a, b):
            assert_allclose(za.coeffs, zb.coeffs, atol=0)


def test_haar_unitary():
    rng = np.random.default_rng(9)
    for d in (1, 2, 5):
        assert unitarity_residual(haar_unitary(d, rng)) < 1e-12
