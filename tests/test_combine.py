import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from qmix.combine import (
    CoefficientSumNonzero,
    DegenerateOuterWeight,
    DegenerateWeight,
    GaugeViolation,
    NestedSpec,
    NotNested,
    PDelta,
    QTriple,
    combine2,
    combine2_bruteforce,
    combine2_stacked,
    combine3_bruteforce,
    combine3_closed,
    combine3_closed_stacked,
    combine3_magic,
    delta_from_nested,
    independence_residual,
    nested_expand,
    nested_from_delta,
    nested_params_for_weights,
    partial_swap_params,
    partial_swap_unitary,
    pdelta_from_q,
    q_from_pdelta,
    q_from_z,
    random_qtriple,
    third_order_reduce,
    verify_real_imag_param,
    z_from_q,
    _closed_rows,
)
from qmix.irreps import (Irrep, IrrepSet, NonUnitaryBlock, NotBlockDiagonal, block_decompose,
                         extract_blocks, haar_unitary, irreps_cyclic, irreps_s3,
                         random_block_unitaries, s3_coeffs_from_phases, synthesize_coeffs,
                         tensor_rep)
from qmix.groups import CoeffVector, Perm, cyclic_group
from qmix.states import (
    DensityMatrix,
    density_spectra,
    entropy,
    get_functional,
    partial_trace,
    random_density,
    tensor,
)

from conftest import commutator, covariance_check, random_s3_phases

IR3 = irreps_s3()
S3 = IR3.group


def rho_triple(seed, d=2):
    rng = np.random.default_rng(seed)
    return [random_density(d, seed=rng) for _ in range(3)]


# ---------------------------------------------------------------------------
# binary combination


class TestPartialSwap:
    def test_lambda_one_is_identity(self):
        assert_allclose(partial_swap_unitary(1.0, 3), np.eye(9), atol=0)

    def test_lambda_zero_is_i_swap(self):
        S = tensor_rep(Perm((2, 1)), 2)
        assert_allclose(partial_swap_unitary(0.0, 2), 1j * S, atol=0)

    def test_unitary(self):
        U = partial_swap_unitary(0.3, 3)
        assert np.abs(U @ U.conj().T - np.eye(9)).max() < 1e-12

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            partial_swap_unitary(1.2, 2)

    def test_sign_checked(self):
        with pytest.raises(ValueError):
            partial_swap_unitary(0.5, 2, sign=0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bitwise_identity_plus_swap(self, d):
        S = tensor_rep(Perm((2, 1)), d)
        for lam, sign in ((0.3, +1), (0.3, -1), (0.0, -1), (1.0, +1), (0.81, -1)):
            expect = np.sqrt(lam) * np.eye(d * d) + sign * 1j * np.sqrt(1 - lam) * S
            assert partial_swap_unitary(lam, d, sign).tobytes() == expect.tobytes()


class TestCombine2:
    def test_endpoints(self):
        r1, r2 = rho_triple(0)[:2]
        assert_allclose(combine2(r1, r2, 0.0).mat, r2.mat, atol=1e-14)
        assert_allclose(combine2(r1, r2, 1.0).mat, r1.mat, atol=1e-14)

    def test_commuting_inputs_convex(self):
        r1 = DensityMatrix.from_probs([0.7, 0.3])
        r2 = DensityMatrix.from_probs([0.2, 0.8])
        out = combine2(r1, r2, 0.4, -1)
        assert_allclose(out.mat, 0.4 * r1.mat + 0.6 * r2.mat, atol=1e-14)

    def test_frozen_oracle(self):
        # |0><0| with |+><+| at lambda = 1/2: worked out from the

        # partial-trace definition by hand
        zero = DensityMatrix.pure([1, 0])
        plus = DensityMatrix.pure([1, 1])
        out = combine2(zero, plus, 0.5, +1)
        expect = np.array([[0.75, (1 - 1j) / 4], [(1 + 1j) / 4, 0.25]])
        assert_allclose(out.mat, expect, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_matches_bruteforce(self, d, sign):
        rng = np.random.default_rng(d * 10 + sign)
        for _ in range(25):
            r1, r2 = random_density(d, seed=rng), random_density(d, seed=rng)
            lam = rng.uniform()
            a = combine2(r1, r2, lam, sign).mat
            b = combine2_bruteforce(r1, r2, lam, sign).mat
            assert np.abs(a - b).max() < 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])  # d = 8 is the brute-force cap
    def test_brute_matches_dense_conjugation(self, d):
        # the definition written out: conjugate by the partial swap, trace out factor 2
        rng = np.random.default_rng(90 + d)
        for _ in range(2 if d == 8 else 5):
            r1, r2 = random_density(d, seed=rng), random_density(d, seed=rng)
            lam, sign = rng.uniform(), int(rng.choice([1, -1]))
            U = partial_swap_unitary(lam, d, sign)
            dense = partial_trace(U @ tensor([r1, r2]).mat @ U.conj().T, {1}, d, 2)
            assert np.abs(dense - combine2_bruteforce(r1, r2, lam, sign).mat).max() < 1e-12

    def test_sign_swap_relation(self):
        # combining (1, 2) with +sqrt equals combining (2, 1) with -sqrt
        r1, r2 = rho_triple(1, d=3)[:2]
        for lam in (0.0, 0.25, 0.8):
            a = combine2(r1, r2, lam, +1).mat
            b = combine2(r2, r1, 1 - lam, -1).mat
            assert_allclose(a, b, atol=1e-14)

    def test_covariance(self):
        rng = np.random.default_rng(2)
        r1, r2 = random_density(3, seed=rng), random_density(3, seed=rng)
        V = haar_unitary(3, rng)
        dev = covariance_check(lambda a, b: combine2(a, b, 0.37, -1), V, (r1, r2))
        assert dev < 1e-10

    @pytest.mark.parametrize("combine", [combine2, combine2_bruteforce],
                             ids=["combine2", "combine2_bruteforce"])
    def test_dim_mismatch(self, combine):
        with pytest.raises(ValueError, match="dimension mismatch"):
            combine(DensityMatrix.maximally_mixed(2), DensityMatrix.maximally_mixed(3), 0.5)

    def test_epi_smoke(self):
        rng = np.random.default_rng(3)
        f = get_functional("von-neumann")
        for _ in range(200):
            r1, r2 = random_density(2, seed=rng), random_density(2, seed=rng)
            lam = rng.uniform()
            out = combine2(r1, r2, lam)
            gap = entropy(f, out) - lam * entropy(f, r1) - (1 - lam) * entropy(f, r2)
            assert gap >= -1e-9


class TestPartialSwapParams:
    def test_recovers_parameters(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            lam = rng.uniform()
            phi = rng.uniform(0, 2 * np.pi)
            sign = +1 if rng.integers(2) == 0 else -1
            z1 = np.sqrt(lam) * np.exp(1j * phi)
            z2 = sign * 1j * np.sqrt(1 - lam) * np.exp(1j * phi)
            phi2, lam2, sign2 = partial_swap_params(z1, z2)
            assert abs(np.sqrt(lam2) * np.exp(1j * phi2) - z1) < 1e-9
            assert abs(sign2 * 1j * np.sqrt(1 - lam2) * np.exp(1j * phi2) - z2) < 1e-9

    def test_pure_swap_edge(self):
        phi, lam, sign = partial_swap_params(0.0, 1j)
        assert lam < 1e-12
        assert abs(sign * 1j * np.exp(1j * phi) - 1j) < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            partial_swap_params(0.9, 0.9)


# ---------------------------------------------------------------------------
# coefficient synthesis formulas


def direct_phase_formula(phi1, phi2, a, c):
    """The six coefficients written out longhand (independent of the package)."""
    e1, e2 = np.exp(1j * phi1), np.exp(1j * phi2)
    ra, ia = np.real(a), np.imag(a)
    rc, ic = np.real(c), np.imag(c)
    apc = a + np.sqrt(3) * c
    amc = a - np.sqrt(3) * c
    return np.array([
        (e1 + e2 + 4 * ra) / 6,
        (e1 + e2 - 2 * np.real(apc)) / 6,
        (e1 + e2 - 2 * np.real(amc)) / 6,
        (e1 - e2 + 4j * ia) / 6,
        (e1 - e2 - 2j * np.imag(apc)) / 6,
        (e1 - e2 - 2j * np.imag(amc)) / 6,
    ])


class TestPhaseFormulas:
    def test_identity_case(self):
        z = s3_coeffs_from_phases(0.0, 0.0, 1.0, 0.0)
        assert_allclose(z.coeffs, [1, 0, 0, 0, 0, 0], atol=1e-14)

    def test_against_longhand(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            phi1, phi2, a, c = random_s3_phases(rng, balanced=False)
            z = s3_coeffs_from_phases(phi1, phi2, a, c)
            assert_allclose(z.coeffs, direct_phase_formula(phi1, phi2, a, c), atol=1e-13)

    def test_balanced_simplification(self):
        # phi1 = -phi2 = phi, a = 1, c = 0: z1 = (cos phi + 2)/3, z4 = i sin(phi)/3
        phi = 0.9
        z = s3_coeffs_from_phases(phi, -phi, 1.0, 0.0)
        assert abs(z.coeffs[0] - (np.cos(phi) + 2) / 3) < 1e-14
        assert abs(z.coeffs[3] - 1j * np.sin(phi) / 3) < 1e-14
        assert abs(z.coeffs[1] - (np.cos(phi) - 1) / 3) < 1e-14
        assert abs(z.coeffs[4] - 1j * np.sin(phi) / 3) < 1e-14

    def test_norm_precondition(self):
        with pytest.raises(ValueError):
            s3_coeffs_from_phases(0.0, 0.0, 1.0, 1.0)

    def test_block_recovery(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            phi1, phi2, a, c = random_s3_phases(rng, balanced=False)
            z = s3_coeffs_from_phases(phi1, phi2, a, c)
            blocks = extract_blocks(z, IR3)
            assert abs(blocks[0][0, 0] - np.exp(1j * phi1)) < 1e-12
            assert abs(blocks[1][0, 0] - np.exp(1j * phi2)) < 1e-12
            assert_allclose(blocks[2],
                            [[a, c], [-np.conj(c), np.conj(a)]], atol=1e-12)

    def test_independence_residual(self):
        rng = np.random.default_rng(7)
        phi1, phi2, a, c = random_s3_phases(rng, balanced=True)
        z = s3_coeffs_from_phases(phi1, phi2, a, c)
        assert independence_residual(z) < 1e-12
        z_generic = s3_coeffs_from_phases(0.7, 0.8, a, c)
        assert independence_residual(z_generic) > 1e-3


# ---------------------------------------------------------------------------
# parametrizations


class TestQTriple:
    def test_manifold_validated(self):
        with pytest.raises(ValueError):
            QTriple(1.0, 1.0, 0.0)  # norm 2
        with pytest.raises(ValueError):
            QTriple(0.9, 0.1, 0.1)  # sum modulus fine but norm off

    def test_gauge_rotation_applied(self):
        q = random_qtriple(8)
        chi = np.exp(0.7j)
        rotated = QTriple(*(chi * v for v in q.as_array()))
        assert_allclose(rotated.as_array(), q.as_array(), atol=1e-12)
        assert abs(sum(rotated.as_array()) - 1) < 1e-12

    def test_weights(self):
        q = random_qtriple(9)
        assert abs(sum(q.weights()) - 1) < 1e-12

    def test_json_round_trip(self):
        q = random_qtriple(10)
        again = QTriple.from_json(q.to_json())
        assert_allclose(again.as_array(), q.as_array(), atol=0)


class TestQZConversions:
    def test_q_unit_vectors(self):
        z = z_from_q(QTriple(1.0, 0.0, 0.0))
        assert_allclose(z.coeffs, [1, 0, 0, 0, 0, 0], atol=0)

    def test_round_trip(self):
        for seed in range(5):
            q = random_qtriple(seed)
            back = q_from_z(z_from_q(q))
            assert_allclose(back.as_array(), q.as_array(), atol=1e-12)

    def test_q_is_canonicalized_pair_sum(self):
        # q_k collects z_k + z_{k+3}, then the global phase is fixed so the
        # components sum to 1
        rng = np.random.default_rng(11)
        phi1, phi2, a, c = random_s3_phases(rng, balanced=True)
        z = s3_coeffs_from_phases(phi1, phi2, a, c)
        q = q_from_z(z)
        raw = z.coeffs[:3] + z.coeffs[3:]
        expect = QTriple(*raw)
        assert_allclose(q.as_array(), expect.as_array(), atol=1e-12)
        assert abs(q.as_array().sum() - 1) < 1e-12

    def test_z_round_trip_canonical_gauge(self):
        # in the canonical gauge the split is real parts / imaginary parts,
        # so the z built from q reproduces itself exactly
        for seed in range(5):
            z = z_from_q(random_qtriple(seed + 70))
            assert_allclose(z_from_q(q_from_z(z)).coeffs, z.coeffs, atol=1e-12)

    def test_gauge_violation(self):
        rng = np.random.default_rng(12)
        z = s3_coeffs_from_phases(0.3, 0.9, *random_s3_phases(rng)[2:])
        with pytest.raises(GaugeViolation):
            q_from_z(z)

    def test_unitarity_transfers(self):
        for seed in range(5):
            q = random_qtriple(seed + 20)
            extract_blocks(z_from_q(q), IR3)  # must not raise


class TestPDeltaConversions:
    def test_round_trip(self):
        for seed in range(8):
            q = random_qtriple(seed + 40)
            if min(q.weights()) < 1e-6:
                continue
            pd = pdelta_from_q(q)
            back = q_from_pdelta(pd)
            assert_allclose(back.as_array(), q.as_array(), atol=1e-10)

    def test_degenerate_weight_carries_weights(self):
        with pytest.raises(DegenerateWeight) as info:
            pdelta_from_q(QTriple(1.0, 0.0, 0.0))
        assert_allclose(info.value.weights, [1, 0, 0], atol=1e-12)

    def test_constraints_enforced(self):
        with pytest.raises(ValueError):
            PDelta((0.5, 0.3, 0.2), (0.1, 0.2, 0.3))  # deltas don't sum to 0

    def test_uniform_cosine_identity(self):
        # any uniform-weight point satisfies cos d12 + cos d23 + cos d31 = 0
        rng = np.random.default_rng(13)
        for _ in range(20):
            q = random_qtriple(rng)
            pd = pdelta_from_q(q)
            s = sum(np.sqrt(pd.p[i] * pd.p[(i + 1) % 3]) * np.cos(pd.deltas[i])
                    for i in range(3))
            assert abs(s) < 1e-10

    def test_json_round_trip(self):
        pd = pdelta_from_q(random_qtriple(15))
        again = PDelta.from_json(pd.to_json())
        assert_allclose(again.p, pd.p, atol=0)
        assert_allclose(again.deltas, pd.deltas, atol=0)


# ---------------------------------------------------------------------------
# ternary evaluators


class TestTernaryEquivalence:
    @pytest.mark.parametrize("d", [2, 3, 8])  # combine --verify runs at d = 8
    def test_closed_magic_brute(self, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            rhos = [random_density(d, seed=rng) for _ in range(3)]
            q = random_qtriple(rng)
            z = z_from_q(q)
            a = combine3_closed(*rhos, q).mat
            b = combine3_magic(*rhos, z).mat
            c = combine3_bruteforce(*rhos, z).mat
            assert np.abs(a - b).max() < 1e-10
            assert np.abs(a - c).max() < 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])  # d = 8: the cap, and what combine --verify runs
    def test_brute_matches_dense_conjugation(self, d):
        # the definition written out: build U = sum_g z_g Q_g, conjugate, trace out 2 and 3
        rng = np.random.default_rng(40 + d)
        for _ in range(2 if d == 8 else 5):
            rhos = [random_density(d, seed=rng) for _ in range(3)]
            z = synthesize_coeffs(random_block_unitaries(IR3, rng), IR3)
            U = sum(z.coeffs[g] * tensor_rep(IR3.group.perms[g], d) for g in range(6))
            dense = partial_trace(U @ tensor(rhos).mat @ U.conj().T, {1}, d, 3)
            assert np.abs(dense - combine3_bruteforce(*rhos, z).mat).max() < 1e-12

    def test_brute_never_forms_the_product_state(self):
        # the channel is contracted factor by factor: rho1 (x) rho2 (x) rho3 alone is 4 MiB at d = 8
        rng = np.random.default_rng(48)
        rhos = [random_density(8, seed=rng) for _ in range(3)]
        z = z_from_q(random_qtriple(rng))
        combine3_bruteforce(*rhos, z)  # warm up, so lazy first-call allocations are not counted
        tracemalloc.start()
        try:
            combine3_bruteforce(*rhos, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_pdelta_path(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            rhos = [random_density(2, seed=rng) for _ in range(3)]
            q = random_qtriple(rng)
            if min(q.weights()) < 1e-6:
                continue
            pd = pdelta_from_q(q)
            a = combine3_closed(*rhos, q).mat
            b = combine3_closed(*rhos, q_from_pdelta(pd)).mat
            assert np.abs(a - b).max() < 1e-10

    def test_indicator_identity(self):
        rhos = rho_triple(17, d=3)
        z = CoeffVector(S3, np.array([1, 0, 0, 0, 0, 0], dtype=complex))
        assert_allclose(combine3_magic(*rhos, z).mat, rhos[0].mat, atol=1e-13)
        assert_allclose(combine3_bruteforce(*rhos, z).mat, rhos[0].mat, atol=1e-13)

    def test_single_cycle_routes_state(self):
        # conjugating by Q2 then keeping slot 1 returns the state fed in
        # from slot 2's source position
        rhos = rho_triple(18, d=2)
        z = CoeffVector(S3, np.array([0, 1, 0, 0, 0, 0], dtype=complex))
        out = combine3_bruteforce(*rhos, z)
        assert_allclose(out.mat, rhos[1].mat, atol=1e-13)

    def test_brute_requires_unitary(self):
        rhos = rho_triple(19)
        z = CoeffVector(S3, np.full(6, 1 / 6, dtype=complex))
        with pytest.raises(NonUnitaryBlock, match="not unitary"):
            combine3_bruteforce(*rhos, z)

    def test_output_is_valid_state(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            rhos = [random_density(3, seed=rng) for _ in range(3)]
            out = combine3_closed(*rhos, random_qtriple(rng))
            assert abs(np.trace(out.mat) - 1) < 1e-10
            assert np.linalg.eigvalsh(out.mat)[0] > -1e-9


def random_stack(d, seed, n=32):
    """n random state triples and q-triples, and the same as (3, n, d, d) and (n, 3) arrays."""
    rng = np.random.default_rng(seed)
    triples = [[random_density(d, seed=rng) for _ in range(3)] for _ in range(n)]
    qs = [random_qtriple(rng) for _ in range(n)]
    mats = np.array([[r.mat for r in t] for t in triples]).swapaxes(0, 1)
    return triples, qs, mats, np.array([q.as_array() for q in qs])


class TestStackedCore:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_closed_agrees_with_scalar_oracles(self, d):
        triples, qs, mats, q = random_stack(d, 40 + d)
        out = combine3_closed_stacked(*mats, q)
        assert out.shape == (32, d, d)
        for row, rhos, qt in zip(out, triples, qs):
            z = z_from_q(qt)
            assert np.abs(row - combine3_magic(*rhos, z).mat).max() < 1e-10
            assert np.abs(row - combine3_bruteforce(*rhos, z).mat).max() < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_closed_rows_equal_batches_of_one(self, d):
        triples, qs, mats, q = random_stack(d, 50 + d)
        for row, rhos, qt in zip(combine3_closed_stacked(*mats, q), triples, qs):
            assert_array_equal(row, combine3_closed(*rhos, qt).mat)
        # fixed states broadcast against many q-rows, as the orbit --mub columns use them
        rhos = triples[0]
        fixed = combine3_closed_stacked(*(r.mat for r in rhos), q)
        for row, qt in zip(fixed, qs):
            assert_array_equal(row, combine3_closed(*rhos, qt).mat)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_closed_matches_the_twelve_product_form(self, d):
        # every second- and third-order term multiplied out, none taken as an adjoint
        _, _, (r1, r2, r3), q = random_stack(d, 90 + d)
        overlap = (q[:, :, None] * np.conj(q[:, None, :]))[..., None, None]  # q_i conj q_j
        x, s, w = overlap.real, overlap.imag, np.abs(q[:, :, None, None]) ** 2
        longhand = (w[:, 0] * r1 + w[:, 1] * r2 + w[:, 2] * r3
                    + s[:, 0, 1] * 1j * (r1 @ r2 - r2 @ r1)
                    + s[:, 1, 2] * 1j * (r2 @ r3 - r3 @ r2)
                    + s[:, 2, 0] * 1j * (r3 @ r1 - r1 @ r3)
                    + x[:, 0, 1] * (r2 @ r3 @ r1 + r1 @ r3 @ r2)
                    + x[:, 1, 2] * (r3 @ r1 @ r2 + r2 @ r1 @ r3)
                    + x[:, 2, 0] * (r1 @ r2 @ r3 + r3 @ r2 @ r1))
        assert np.abs(combine3_closed_stacked(r1, r2, r3, q) - longhand).max() <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_closed_output_is_exactly_hermitian(self, d):
        _, qs, mats, q = random_stack(d, 95 + d)
        mats = (mats + np.conj(np.swapaxes(mats, -1, -2))) / 2  # exactly Hermitian inputs
        out = combine3_closed_stacked(*mats, q)
        assert_array_equal(out, np.conj(np.swapaxes(out, -1, -2)))
        for k, qt in enumerate(qs[:4]):
            single = combine3_closed(*(DensityMatrix(m[k]) for m in mats), qt).mat
            assert_array_equal(single, single.conj().T)

    def test_closed_checks_every_row(self):
        _, _, mats, q = random_stack(2, 60, n=4)
        q[2] = [0.5, 0.5, 0]
        with pytest.raises(ValueError):
            combine3_closed_stacked(*mats, q)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_binary_agrees_with_bruteforce_and_batches_of_one(self, d):
        triples, _, mats, _ = random_stack(d, 70 + d)
        rng = np.random.default_rng(d)
        lam, sign = rng.uniform(size=32), rng.choice([1, -1], size=32)
        out = combine2_stacked(mats[0], mats[1], lam, sign)
        assert_array_equal(out, np.conj(np.swapaxes(out, -1, -2)))  # from exactly Hermitian states
        for row, (r1, r2, _), l, s in zip(out, triples, lam, sign):
            assert np.abs(row - combine2_bruteforce(r1, r2, l, s).mat).max() < 1e-10
            assert_array_equal(row, combine2(r1, r2, l, s).mat)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_binary_matches_the_two_product_form(self, d):
        # the commutator multiplied out, neither product taken as an adjoint
        _, _, (r1, r2, _), _ = random_stack(d, 85 + d)
        rng = np.random.default_rng(d)
        lam, sign = rng.uniform(size=32), rng.choice([1, -1], size=32)
        l, s = lam[:, None, None], sign[:, None, None]
        longhand = l * r1 + (1 - l) * r2 + s * np.sqrt(l * (1 - l)) * 1j * (r2 @ r1 - r1 @ r2)
        assert np.abs(combine2_stacked(r1, r2, lam, sign) - longhand).max() <= 1e-15

    def test_binary_lambda_checked(self):
        _, _, mats, _ = random_stack(2, 80, n=3)
        with pytest.raises(ValueError, match="lambda"):
            combine2_stacked(mats[0], mats[1], [0.5, 1.5, 0.2], [1, 1, 1])

    @pytest.mark.parametrize("sign", [0, 2, 0.5])
    def test_binary_sign_checked(self, sign):
        triples, _, mats, _ = random_stack(2, 81, n=3)
        with pytest.raises(ValueError, match="sign"):
            combine2_stacked(mats[0], mats[1], [0.5, 0.5, 0.2], [1, sign, -1])
        r1, r2, _ = triples[0]
        with pytest.raises(ValueError, match="sign"):
            combine2(r1, r2, 0.3, sign)


class TestClosedFormStructure:
    def test_commuting_diagonal_states(self):
        # diagonal states kill every commutator; output is the convex
        # mixture plus the real triple-product block
        probs = [[0.5, 0.5], [0.8, 0.2], [0.1, 0.9]]
        rhos = [DensityMatrix.from_probs(p) for p in probs]
        q = random_qtriple(21)
        qa = q.as_array()
        w = np.abs(qa) ** 2
        r = [s.mat for s in rhos]
        triple = r[0] @ r[1] @ r[2]
        re12 = np.real(qa[0] * np.conj(qa[1]))
        re23 = np.real(qa[1] * np.conj(qa[2]))
        re31 = np.real(qa[2] * np.conj(qa[0]))
        expect = sum(wi * ri for wi, ri in zip(w, r)) \
            + 2 * (re12 + re23 + re31) * triple
        assert_allclose(combine3_closed(*rhos, q).mat, expect, atol=1e-12)
        # and on the manifold those real parts sum to zero: pure mixture
        assert abs(re12 + re23 + re31) < 1e-10

    def test_conjugate_flips_second_order(self):
        rhos = rho_triple(22, d=3)
        q = random_qtriple(22)
        qa = q.as_array()
        r = [s.mat for s in rhos]
        im_block = sum(np.imag(qa[i] * np.conj(qa[(i + 1) % 3]))
                       * 1j * commutator(r[i], r[(i + 1) % 3]) for i in range(3))
        a = combine3_closed(*rhos, q).mat
        b = combine3_closed(*rhos, q.conjugate()).mat
        assert_allclose(a - b, 2 * im_block, atol=1e-13)

    def test_simultaneous_permutation_invariance(self):
        rhos = rho_triple(23, d=3)
        q = random_qtriple(23)
        qa = q.as_array()
        base = combine3_closed(*rhos, q).mat
        for perm in [(1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2), (2, 1, 0)]:
            q2 = QTriple(*(qa[i] for i in perm))
            out = combine3_closed(*(rhos[i] for i in perm), q2).mat
            assert np.abs(out - base).max() < 1e-12

    def test_covariance(self):
        rng = np.random.default_rng(24)
        rhos = [random_density(3, seed=rng) for _ in range(3)]
        q = random_qtriple(rng)
        V = haar_unitary(3, rng)
        dev = covariance_check(lambda *r: combine3_closed(*r, q), V, rhos)
        assert dev < 1e-10


class TestThirdOrderReduce:
    def block(self, rhos, q):
        qa = q.as_array()
        w = np.abs(qa) ** 2
        r = [s.mat for s in rhos]
        out = combine3_closed(*rhos, q).mat
        out = out - sum(wi * ri for wi, ri in zip(w, r))
        out = out - sum(np.imag(qa[i] * np.conj(qa[(i + 1) % 3]))
                        * 1j * commutator(r[i], r[(i + 1) % 3]) for i in range(3))
        return out

    def test_two_double_commutators(self):
        rhos = rho_triple(25, d=3)
        q = random_qtriple(25)
        x, y = third_order_reduce(q)
        r = [s.mat for s in rhos]
        expect = x * 1j * commutator(r[0], 1j * commutator(r[1], r[2])) \
            + y * 1j * commutator(1j * commutator(r[0], r[1]), r[2])
        assert_allclose(self.block(rhos, q), expect, atol=1e-12)

    def test_xyz_coefficient_table(self):
        # coefficients over the six orderings follow the (z, x, y, x, y, z)
        # pattern with z = -x - y
        rhos = rho_triple(26, d=3)
        q = random_qtriple(26)
        x, y = third_order_reduce(q)
        zc = -x - y
        r = [s.mat for s in rhos]
        orderings = [r[0] @ r[1] @ r[2], r[0] @ r[2] @ r[1], r[1] @ r[0] @ r[2],
                     r[1] @ r[2] @ r[0], r[2] @ r[0] @ r[1], r[2] @ r[1] @ r[0]]
        coeffs = [zc, x, y, x, y, zc]
        expect = sum(cf * M for cf, M in zip(coeffs, orderings))
        assert_allclose(self.block(rhos, q), expect, atol=1e-12)

    def test_cyclic_shift_agreement(self):
        rhos = rho_triple(27, d=2)
        q = random_qtriple(27)
        qa = q.as_array()
        shifted_q = QTriple(qa[1], qa[2], qa[0])
        shifted_rhos = [rhos[1], rhos[2], rhos[0]]
        assert_allclose(self.block(shifted_rhos, shifted_q),
                        self.block(rhos, q), atol=1e-12)

    def test_real_q_manifold(self):
        # a real point on the manifold: second-order terms vanish but the
        # reduction is still exact
        q = QTriple(1.0, 0.0, 0.0)
        x, y = third_order_reduce(q)
        assert x == 0 and y == 0

    def test_constraint_checked(self):
        class Fake:
            def as_array(self):
                return np.array([0.9, 0.3, 0.3], dtype=complex)
        with pytest.raises(CoefficientSumNonzero):
            third_order_reduce(Fake())


# ---------------------------------------------------------------------------
# nested expressions


class TestNested:
    def test_outer_weight_one(self):
        rhos = rho_triple(28)
        spec = NestedSpec(1, 1.0, 0.3, 0, 1)
        assert_allclose(nested_expand(spec, *rhos).mat, rhos[0].mat, atol=1e-13)

    def test_inner_only(self):
        rhos = rho_triple(29)
        spec = NestedSpec(1, 0.0, 1.0, 1, 0)
        assert_allclose(nested_expand(spec, *rhos).mat, rhos[1].mat, atol=1e-13)

    def test_first_order_weights(self):
        # commuting diagonal states expose the convex weights exactly
        probs = [[0.6, 0.4], [0.3, 0.7], [0.9, 0.1]]
        rhos = [DensityMatrix.from_probs(p) for p in probs]
        a, ap = 0.4, 0.55
        out = nested_expand(NestedSpec(1, a, ap, 0, 0), *rhos).mat
        expect = a * rhos[0].mat + (1 - a) * ap * rhos[1].mat \
            + (1 - a) * (1 - ap) * rhos[2].mat
        assert_allclose(out, expect, atol=1e-13)

    def test_params_for_weights(self):
        a, ap = nested_params_for_weights((1 / 3, 1 / 3, 1 / 3), 1)
        assert abs(a - 1 / 3) < 1e-14 and abs(ap - 0.5) < 1e-14
        a, ap = nested_params_for_weights((0.5, 0.3, 0.2), 1)
        assert abs(a - 0.5) < 1e-14 and abs(ap - 0.6) < 1e-14

    def test_params_degenerate(self):
        with pytest.raises(DegenerateOuterWeight):
            nested_params_for_weights((1.0, 0.0, 0.0), 1)

    def test_params_other_orderings(self):
        p = (0.5, 0.3, 0.2)
        a2, ap2 = nested_params_for_weights(p, 2)
        assert abs(a2 - 0.3) < 1e-14 and abs(ap2 - 0.2 / 0.7) < 1e-14
        a3, ap3 = nested_params_for_weights(p, 3)
        assert abs(a3 - 0.2) < 1e-14 and abs(ap3 - 0.5 / 0.8) < 1e-14

    def test_delta_from_nested_frozen(self):
        pd = delta_from_nested(NestedSpec(1, 1 / 3, 0.5, 0, 0), (1 / 3, 1 / 3, 1 / 3))
        d12, d23, d31 = pd.deltas
        assert abs(np.cos(d23)) < 1e-14
        assert abs(np.sin(d23) + 1) < 1e-14
        assert abs(np.sin(d31) - np.sqrt(0.5)) < 1e-14

    def test_four_sign_choices_distinct(self):
        p = (0.4, 0.35, 0.25)
        seen = []
        for s in (0, 1):
            for sp in (0, 1):
                a, ap = nested_params_for_weights(p, 1)
                pd = delta_from_nested(NestedSpec(1, a, ap, s, sp), p)
                seen.append(tuple(np.round(pd.deltas, 9)))
        assert len(set(seen)) == 4

    @pytest.mark.parametrize("ordering", [1, 2, 3])
    @pytest.mark.parametrize("s", [0, 1])
    @pytest.mark.parametrize("sp", [0, 1])
    def test_round_trip_matches_expansion(self, ordering, s, sp):
        rng = np.random.default_rng(1000 + ordering * 4 + s * 2 + sp)
        rhos = [random_density(2, seed=rng) for _ in range(3)]
        p = np.array([0.5, 0.3, 0.2])
        a, ap = nested_params_for_weights(p, ordering)
        spec = NestedSpec(ordering, a, ap, s, sp)
        pd = delta_from_nested(spec, p)
        q = q_from_pdelta(pd)
        direct = combine3_closed(*rhos, q).mat
        nested = nested_expand(spec, *rhos).mat
        assert np.abs(direct - nested).max() < 1e-10

    def test_nested_from_delta_recovers(self):
        # the second triple's last weight is exactly the smallest that counts as nonzero
        for p in ((0.45, 0.25, 0.30), (0.5, 0.5 - 1e-15, 1e-15)):
            for ordering in (1, 2, 3):
                a, ap = nested_params_for_weights(p, ordering)
                for s in (0, 1):
                    for sp in (0, 1):
                        spec = NestedSpec(ordering, a, ap, s, sp)
                        pd = delta_from_nested(spec, p)
                        back = nested_from_delta(pd)
                        assert back.ordering == ordering, (p, spec)
                        assert back.s == s and back.s_prime == sp, (p, spec)
                        assert abs(back.a - a) < 1e-10, (p, spec)
                        assert abs(back.a_prime - ap) < 1e-10, (p, spec)

    def test_not_nested_detected(self):
        # generic manifold points have all three cosines bounded away from 0
        q = random_qtriple(30)
        pd = pdelta_from_q(q)
        if min(abs(np.cos(d)) for d in pd.deltas) > 1e-6:
            with pytest.raises(NotNested):
                nested_from_delta(pd)

    def test_inheritance_bound(self):
        rng = np.random.default_rng(31)
        f = get_functional("von-neumann")
        for _ in range(50):
            rhos = [random_density(2, seed=rng) for _ in range(3)]
            spec = NestedSpec(int(rng.integers(1, 4)), float(rng.uniform()),
                              float(rng.uniform()), int(rng.integers(2)),
                              int(rng.integers(2)))
            out = nested_expand(spec, *rhos)
            p1 = spec_weights(spec)
            mix = sum(w * entropy(f, r) for w, r in zip(p1, rhos_in_slot_order(spec, rhos)))
            assert entropy(f, out) >= mix - 1e-9


def spec_weights(spec):
    return (spec.a, (1 - spec.a) * spec.a_prime, (1 - spec.a) * (1 - spec.a_prime))


def rhos_in_slot_order(spec, rhos):
    order = {1: (0, 1, 2), 2: (1, 2, 0), 3: (2, 0, 1)}[spec.ordering]
    return [rhos[i] for i in order]


# ---------------------------------------------------------------------------
# appendix equivalence and uniform-superposition overlap


class TestRealImagParam:
    def test_unit_vector(self):
        assert verify_real_imag_param(1, 0, 0, 0, 0, 0)

    def test_uniform_fails_cross_constraint(self):
        s = 1 / np.sqrt(3)
        assert not verify_real_imag_param(s, s, s, 0, 0, 0)

    def test_agrees_with_block_extraction(self):
        rng = np.random.default_rng(32)
        hits = 0
        for k in range(300):
            if k % 2 == 0:
                q = random_qtriple(rng)
                vec = np.concatenate([q.as_array().real, q.as_array().imag])
            else:
                vec = rng.normal(size=6)
            a1, a2, a3, b1, b2, b3 = vec
            z = CoeffVector(S3, np.array([a1, a2, a3, 1j * b1, 1j * b2, 1j * b3]))
            try:
                extract_blocks(z, IR3)
                unitary = True
            except Exception:
                unitary = False
            assert verify_real_imag_param(*vec) == unitary
            hits += unitary
        assert 0 < hits < 300  # both branches exercised


class TestUniformOverlap:
    def test_mutually_unbiased_to_uniform(self):
        u = np.ones(3) / np.sqrt(3)
        for seed in range(10):
            q = random_qtriple(seed + 50)
            assert abs(abs(np.vdot(u, q.as_array())) ** 2 - 1 / 3) < 1e-10


class TestRandomSampling:
    def test_random_qtriple_reproducible(self):
        a = random_qtriple(33)
        b = random_qtriple(33)
        assert_allclose(a.as_array(), b.as_array(), atol=0)

    def test_balanced_phases_give_gauge(self):
        rng = np.random.default_rng(34)
        phi1, phi2, a, c = random_s3_phases(rng, balanced=True)
        assert phi2 == -phi1
        assert abs(abs(a) ** 2 + abs(c) ** 2 - 1) < 1e-12


def _s3_irreps_with_nan_element():
    """The S3 irreps with the standard irrep's matrix for element 3 set to NaN."""
    ir = irreps_s3()
    mats = ir.irreps[2].matrices.copy()
    mats[3] = np.nan
    return IrrepSet(ir.group, ir.irreps[:2] + (Irrep("standard", 2, mats),))


def _pdelta_with_fourth_delta() -> PDelta:
    """A valid PDelta's weights and deltas, with a zero fourth delta appended."""
    pd = pdelta_from_q(random_qtriple(7))
    return PDelta(pd.p, pd.deltas + (0.0,))


@pytest.mark.parametrize("build", [
    lambda: QTriple(np.nan, 0, 0),
    lambda: DensityMatrix([[np.nan, 0], [0, 1]]),
    lambda: PDelta((0.2, 0.3, 0.5), (np.nan, 0, 0)),
    lambda: extract_blocks(CoeffVector(S3, [np.nan] * 6), IR3),
    lambda: synthesize_coeffs((np.array([[np.nan]]),), irreps_cyclic(1)),
    lambda: nested_params_for_weights([0.5, np.nan, 0.5], 1),
    lambda: partial_swap_params(np.nan, 0.5),
    lambda: DensityMatrix.from_probs([np.nan, 0.5]),
    lambda: DensityMatrix.from_bloch(np.nan, 0, 0),
    lambda: block_decompose(np.full((6, 6), np.nan), irreps_s3()),
    lambda: s3_coeffs_from_phases(0.1, -0.1, complex(np.nan, 0), 0.5),
    _s3_irreps_with_nan_element,
    lambda: _closed_rows([[1, 0, 0], [np.nan, 0, 1]]),
    lambda: _closed_rows([[1, 0, 0], [0.5, 0.5, 0]]),
    lambda: q_from_z(CoeffVector(S3, [np.nan] * 6)),
    lambda: third_order_reduce(_qtriple_with_nan()),
    lambda: DensityMatrix.pure([0, 0]),
    lambda: DensityMatrix.pure([np.nan, 1]),
    lambda: DensityMatrix.pure([np.inf, 1]),
    lambda: s3_coeffs_from_phases(np.nan, 0, 1, 0),
    lambda: s3_coeffs_from_phases(0, np.inf, 1, 0),
    lambda: PDelta((0.2, 0.3, 0.5), (0.1, -0.1)),
    _pdelta_with_fourth_delta,
    lambda: DensityMatrix([[np.inf, 0], [0, 1]]),
    lambda: DensityMatrix([[-np.inf, 0], [0, 1]]),
    lambda: DensityMatrix([[0.5, np.inf], [np.inf, 0.5]]),
    lambda: density_spectra(np.array([np.eye(2) / 2, [[np.inf, 0], [0, 1]]])),
    lambda: PDelta((0.2, 0.3, 0.5), (np.inf, 0, 0)),
    lambda: PDelta((0.2, 0.3, 0.5), (-np.inf, 0, 0)),
    lambda: synthesize_coeffs((np.array([[np.inf]]),), irreps_cyclic(1)),
    lambda: block_decompose(np.full((6, 6), np.inf), irreps_s3()),
], ids=["qtriple", "density", "pdelta", "s3coeffs", "synthesis", "nested-weights",
        "partial-swap", "from-probs", "from-bloch", "block-decompose", "s3-from-phases",
        "irrep-set", "closed-rows-nan", "closed-rows-off-norm", "q-from-z",
        "third-order-reduce", "pure-zero", "pure-nan", "pure-inf", "s3-from-phases-nan-phi1",
        "s3-from-phases-inf-phi2", "pdelta-two-deltas", "pdelta-four-deltas",
        "density-inf", "density-neg-inf", "density-inf-off-diagonal", "density-spectra-inf",
        "pdelta-inf", "pdelta-neg-inf", "synthesis-inf", "block-decompose-inf"])
def test_nan_fails_validation(build):
    # the check's own ValueError, not a numpy warning (pytest makes warnings errors)
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build, error, match", [
    (lambda: DensityMatrix.from_bloch(np.float64(1e200), 0, 0), ValueError, "unit ball"),
    (lambda: DensityMatrix([[1e308, 0], [0, 1e308]]), ValueError, "trace is"),
    (lambda: QTriple(1e200, 0, 0), ValueError, r"sum \|q_i\|\^2"),
    (lambda: PDelta((0.2, 0.3, 0.5), (1e308, 1e308, 0)), ValueError, "delta sum"),
    (lambda: DensityMatrix.from_probs([1e308, 1e308]), ValueError, "sum to 1"),
    (lambda: synthesize_coeffs((np.array([[1e200]]),), irreps_cyclic(1)),
     NonUnitaryBlock, "not unitary"),
    (lambda: block_decompose(np.full((6, 6), 1e308), irreps_s3()), NotBlockDiagonal, "off-block"),
], ids=["from-bloch", "density", "qtriple", "pdelta", "from-probs", "synthesis",
        "block-decompose"])
def test_overflow_fails_with_the_checks_own_error(build, error, match):
    # finite inputs whose residual overflows to inf: the check fails, no numpy overflow warning
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize("psi, same_as", [
    ([1e200, 1e200], [1, 1]),
    ([1e-200, 1e-200], [1, 1]),
    ([1e-320, 1e-320], [1, 1]),
    ([1e-310, 0], [1, 0]),
    ([5e-324, 5e-324j], [1, 1j]),
], ids=["huge", "tiny", "subnormal", "subnormal-and-zero", "subnormal-imaginary"])
def test_pure_scales_before_taking_the_norm(psi, same_as):
    # the squared modulus of each entry over- or underflows, or the entries are subnormal
    # (a complex array divided by a subnormal real is inf+nanj); the state is still valid
    got = DensityMatrix.pure(psi).mat
    assert np.abs(got - DensityMatrix.pure(same_as).mat).max() <= 1e-15


@pytest.mark.parametrize("call", [
    lambda z: combine3_magic(*rho_triple(0), z),
    lambda z: combine3_bruteforce(*rho_triple(0), z),
    q_from_z,
    independence_residual,
], ids=["magic", "bruteforce", "q-from-z", "independence-residual"])
def test_coefficients_over_another_group_are_rejected(call):
    # the identity of Z6 is a unitary group-algebra element, but not one over S3
    with pytest.raises(ValueError, match="over S3"):
        call(CoeffVector.indicator(cyclic_group(6), 0))


def _qtriple_with_nan() -> QTriple:
    """A valid QTriple whose first entry is then overwritten with NaN."""
    q = QTriple(1.0, 0.0, 0.0)
    object.__setattr__(q, "q1", complex(np.nan, 0))
    return q


def test_nan_raises_the_checks_own_exception():
    # NaN must fail the gauge and overlap checks themselves, not a later constructor
    with pytest.raises(GaugeViolation):
        q_from_z(CoeffVector(S3, [np.nan] * 6))
    with pytest.raises(GaugeViolation):
        q_from_z(CoeffVector(S3, [0.5, 0.5, 0, np.nan, 0, 0]))
    with pytest.raises(CoefficientSumNonzero):
        third_order_reduce(_qtriple_with_nan())
