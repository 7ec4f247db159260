import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from qmix.groups import Perm, symmetric_group
from qmix.irreps import tensor_rep
from qmix.states import (
    ENTROPY_FUNCTIONALS,
    DensityMatrix,
    bloch_vector,
    density_spectra,
    entropy,
    get_functional,
    partial_trace,
    random_density,
    tensor,
    _gram_states,
    _matmul,
    _require,
    _spectra,
)

from conftest import commutator, double_commutator

S3 = symmetric_group(3)


def rho_triple(seed, d=2):
    rng = np.random.default_rng(seed)
    return [random_density(d, seed=rng) for _ in range(3)]


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            DensityMatrix(np.zeros((0, 0)))

    def test_pure_normalizes(self):
        rho = DensityMatrix.pure([2, 0])
        assert_allclose(rho.mat, [[1, 0], [0, 0]], atol=0)
        assert abs(rho.purity() - 1) < 1e-12

    def test_from_probs(self):
        rho = DensityMatrix.from_probs([0.75, 0.25])
        assert_allclose(np.linalg.eigvalsh(rho.mat), [0.25, 0.75], atol=1e-15)
        with pytest.raises(ValueError):
            DensityMatrix.from_probs([0.5, 0.6])

    def test_bloch_round_trip(self):
        v = (0.3, -0.4, 0.5)
        rho = DensityMatrix.from_bloch(*v)
        assert_allclose(bloch_vector(rho), v, atol=1e-12)
        with pytest.raises(ValueError):
            DensityMatrix.from_bloch(1.0, 1.0, 0.0)

    def test_bloch_needs_qubit(self):
        with pytest.raises(ValueError):
            bloch_vector(DensityMatrix.maximally_mixed(3))

    def test_json_round_trip(self):
        rho = random_density(3, seed=4)
        again = DensityMatrix.from_json(rho.to_json())
        assert_allclose(again.mat, rho.mat, atol=0)


class TestDensitySpectra:
    def test_returns_each_matrix_spectrum(self):
        mats = np.array([r.mat for r in rho_triple(3, d=3)])
        lam = density_spectra(mats)
        assert lam.shape == (3, 3)
        for row, M in zip(lam, mats):
            assert_array_equal(row, np.linalg.eigvalsh(M))
        # qubits take the closed form, which agrees with eigvalsh to rounding
        mats = np.array([r.mat for r in rho_triple(3)])
        lam = density_spectra(mats)
        assert lam.shape == (3, 2)
        for row, M in zip(lam, mats):
            assert np.abs(row - np.linalg.eigvalsh(M)).max() <= 2e-15

    @pytest.mark.parametrize("bad, message", [
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "Hermitian"),
        (np.eye(2), "trace"),
        (np.diag([1.5, -0.5]), "eigenvalue"),
        (np.full((2, 2), np.nan), "Hermitian"),
        (np.array([[0.5, 0], [np.nan, 0.5]]), "Hermitian"),
        (np.array([[0.5, np.inf], [np.inf, 0.5]]), "Hermitian"),
        (np.array([[-np.inf, 0], [0, 0.5]]), "Hermitian"),
    ])
    def test_one_bad_matrix_fails_the_stack(self, bad, message):
        good = np.eye(2) / 2
        with pytest.raises(ValueError, match=message):
            density_spectra(np.array([[good, good], [good, bad]]))

    def test_message_quotes_the_first_failing_matrix(self):
        stack = np.array([np.eye(2) / 2, np.diag([1.5, -0.5]), np.diag([1.25, -0.25])])
        with pytest.raises(ValueError, match="negative eigenvalue -5.000e-01"):
            density_spectra(stack)
        # a small negative eigenvalue off the diagonal fails too
        V = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
        stack = np.array([np.eye(2) / 2] + [V @ np.diag([1 + e, -e]) @ V.conj().T
                                            for e in (1e-8, 2e-8)])
        with pytest.raises(ValueError, match="negative eigenvalue -1.000e-08"):
            density_spectra(stack)

    def test_empty_stack(self):
        assert density_spectra(np.empty((0, 2, 2), complex)).shape == (0, 2)

    @pytest.mark.parametrize("kind", ["random", "pure", "maximally-mixed", "diagonal",
                                      "near-degenerate", "tiny-scale",
                                      "upper-triangle-ignored"])
    def test_qubit_closed_form_matches_eigvalsh(self, kind):
        rng = np.random.default_rng(17)
        mats = {
            "random": lambda: np.array([random_density(2, seed=rng).mat for _ in range(500)]),
            "pure": lambda: np.array([random_density(2, rank=1, seed=rng).mat
                                      for _ in range(500)]),
            "maximally-mixed": lambda: np.eye(2, dtype=complex)[None] / 2,
            "diagonal": lambda: np.array([np.diag([p, 1 - p]).astype(complex)
                                          for p in rng.uniform(size=500)]),
            "near-degenerate": lambda: np.eye(2) / 2 + np.array([
                1e-9 * random_density(2, seed=rng).mat for _ in range(500)]),
            "tiny-scale": lambda: 1e-300 * np.array([random_density(2, seed=rng).mat
                                                     for _ in range(500)]),
            # as eigvalsh, only the lower triangle is read
            "upper-triangle-ignored": lambda: np.array([
                random_density(2, seed=rng).mat * [[1, 0], [1, 1]] + [[0, 5 + 3j], [0, 0]]
                for _ in range(500)]),
        }[kind]()
        scale = np.abs(mats).max()
        assert np.abs(_spectra(mats) - np.linalg.eigvalsh(mats)).max() <= 2e-15 * scale


class TestRequire:
    """The one tolerance check every validator in the package goes through."""

    def test_nan_and_infinities_fail(self):
        for bad in (np.nan, np.inf, -np.inf):
            assert _require(bad, 1.0) is False
            with pytest.raises(ValueError, match=f"bad {bad}"):
                _require(np.array([0.0, bad]), 1.0, "bad {}")

    def test_empty_stack_passes(self):
        assert _require(np.empty(0), 0.0, "never raised") is True

    def test_quotes_the_first_failing_entry(self):
        with pytest.raises(ValueError, match="value 3"):
            _require([0.5, 2.0, 1.5], [1.0, 3.0, 1.0], "value {}", quote=[1, 2, 3])

    def test_builds_the_checks_own_exception(self):
        class Custom(ValueError):
            def __init__(self, residual):
                self.residual = residual
                super().__init__(f"residual {residual}")

        with pytest.raises(Custom, match="residual 0.25") as info:
            _require(0.25, 0.125, Custom)
        assert info.value.residual == 0.25


class TestTensorAndTrace:
    def test_unit_factor(self):
        rho = random_density(3, seed=0)
        unit = DensityMatrix(np.array([[1.0 + 0j]]))
        assert_allclose(tensor([rho, unit]).mat, rho.mat, atol=0)

    def test_pure_product(self):
        zero = DensityMatrix.pure([1, 0])
        one = DensityMatrix.pure([0, 1])
        prod = tensor([zero, one]).mat
        expect = np.zeros((4, 4))
        expect[1, 1] = 1
        assert_allclose(prod, expect, atol=0)

    def test_trace_multiplies(self):
        states = rho_triple(1, d=3)
        assert abs(np.trace(tensor(states).mat) - 1) < 1e-12

    def test_size_cap(self):
        big = DensityMatrix.maximally_mixed(20)
        with pytest.raises(ValueError):
            tensor([big, big, big])

    def test_keep_first_factor(self):
        states = rho_triple(2, d=2)
        out = partial_trace(tensor(states).mat, {1}, 2, 3)
        assert_allclose(out, states[0].mat, atol=1e-14)

    def test_keep_set_multiple(self):
        states = rho_triple(3, d=2)
        out = partial_trace(tensor(states).mat, {1, 3}, 2, 3)
        assert_allclose(out, np.kron(states[0].mat, states[2].mat), atol=1e-14)

    def test_trace_preserving_linear(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        B = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        out = partial_trace(2.0 * A + B, {2}, 2, 3)
        assert_allclose(out, 2.0 * partial_trace(A, {2}, 2, 3) + partial_trace(B, {2}, 2, 3),
                        atol=1e-12)
        assert abs(np.trace(out) - np.trace(2.0 * A + B)) < 1e-12

    def test_bad_subsystem(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(8), {4}, 2, 3)
        with pytest.raises(ValueError):
            partial_trace(np.eye(8), set(), 2, 3)

    def test_conjugation_permutes_factors(self):
        states = rho_triple(6, d=2)
        big = tensor(states).mat
        Q2 = tensor_rep(Perm((3, 1, 2)), 2)
        moved = Q2 @ big @ Q2.conj().T
        assert_allclose(moved, tensor([states[1], states[2], states[0]]).mat, atol=1e-14)


class TestContractionOracles:
    """Single permutation-pair contractions against their closed forms."""

    def setup_method(self):
        self.states = rho_triple(7, d=3)
        self.big = tensor(self.states).mat
        self.Q = [tensor_rep(S3.perms[g], 3) for g in S3.elements]

    def contract(self, a, b):
        return partial_trace(self.Q[a] @ self.big @ self.Q[b].conj().T, {1}, 3, 3)

    def test_identity_pair(self):
        assert_allclose(self.contract(0, 0), self.states[0].mat, atol=1e-13)

    def test_transposition_pair(self):
        r1, r2, r3 = (s.mat for s in self.states)
        expect = r1 * np.trace(r2 @ r3)
        assert_allclose(self.contract(3, 0), expect, atol=1e-13)

    def test_cycle_pair(self):
        r1, r2, r3 = (s.mat for s in self.states)
        assert_allclose(self.contract(1, 0), r2 @ r3 @ r1, atol=1e-13)


class TestCommutators:
    def test_self_commutator(self):
        A = random_density(4, seed=8).mat
        assert_allclose(commutator(A, A), np.zeros((4, 4)), atol=1e-15)

    def test_jacobi(self):
        rng = np.random.default_rng(9)
        A, B, C = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3))
        total = (double_commutator(A, B, C) + double_commutator(B, C, A)
                 + double_commutator(C, A, B))
        assert_allclose(total, np.zeros((4, 4)), atol=1e-12)

    def test_expansion_coefficients(self):
        # [r1,[r2,r3]] over the six orderings r_i r_j r_k
        rng = np.random.default_rng(10)
        r1, r2, r3 = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                      for _ in range(3))
        orderings = [r1 @ r2 @ r3, r1 @ r3 @ r2, r2 @ r1 @ r3,
                     r2 @ r3 @ r1, r3 @ r1 @ r2, r3 @ r2 @ r1]
        first = sum(c * M for c, M in zip([1, -1, 0, -1, 0, 1], orderings))
        assert_allclose(double_commutator(r1, r2, r3), first, atol=1e-12)
        second = sum(c * M for c, M in zip([1, 0, -1, 0, -1, 1], orderings))
        assert_allclose(commutator(commutator(r1, r2), r3), second, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.eye(2), np.eye(3))


class TestSmallStackKernels:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_matmul_matches_matmul_operator_row_by_row(self, d):
        rng = np.random.default_rng(30 + d)
        A, B = (rng.normal(size=(64, d, d)) + 1j * rng.normal(size=(64, d, d)) for _ in range(2))
        out = _matmul(A, B)
        assert np.all(np.abs(out - A @ B) <= 1e-15 * (np.abs(A) @ np.abs(B)))
        for k in range(64):
            assert_array_equal(_matmul(A[k:k + 1], B[k:k + 1])[0], out[k])

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_einsum_trace_matches_ndarray_trace(self, d):
        # the (samples, 4, d, d) stacks a ternary scan checks: a mix of three drawn states, then them
        states = _gram_states(np.random.default_rng(40 + d).normal(size=(256, 3, 2, d, d)))
        mix = 0.5 * states[:, 0] + 0.3 * states[:, 1] + 0.2 * states[:, 2]
        stack = np.concatenate([mix[:, None], states], axis=1)
        ein, tr = np.einsum("...ii->...", stack), stack.trace(axis1=-2, axis2=-1)
        if d < 4:  # from four terms on, einsum adds the diagonal in another order
            assert_array_equal(ein, tr)
        assert np.abs(ein - tr).max() <= d * np.finfo(float).eps

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_drawn_states_are_exactly_hermitian(self, d):
        rng = np.random.default_rng(50 + d)
        for rank in range(1, d + 1):
            x = rng.normal(size=(256, 3, 2, d, rank))
            states = _gram_states(x)
            assert_array_equal(states, np.conj(np.swapaxes(states, -1, -2)))
            assert not np.diagonal(states, axis1=-2, axis2=-1).imag.any()
            for k in range(0, 256, 51):
                assert_array_equal(_gram_states(x[k:k + 1])[0], states[k])


class TestRandomDensity:
    def test_rank_one_is_pure(self):
        rho = random_density(4, rank=1, seed=11)
        assert abs(rho.purity() - 1) < 1e-10

    def test_seed_reproducible(self):
        a = random_density(3, seed=12)
        b = random_density(3, seed=12)
        assert_allclose(a.mat, b.mat, atol=0)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            random_density(2, rank=3, seed=0)

    def test_mean_bloch_vanishes(self):
        rng = np.random.default_rng(13)
        acc = np.zeros(3)
        n = 10_000
        for _ in range(n):
            acc += bloch_vector(random_density(2, seed=rng))
        assert np.linalg.norm(acc / n) < 0.05


class TestEntropies:
    def test_pure_von_neumann(self):
        f = get_functional("von-neumann")
        assert abs(entropy(f, DensityMatrix.pure([1, 1j]))) < 1e-10

    def test_maximally_mixed(self):
        f = get_functional("von-neumann")
        assert abs(entropy(f, DensityMatrix.maximally_mixed(2)) - np.log(2)) < 1e-12

    def test_diagonal_oracle(self):
        rho = DensityMatrix.from_probs([0.75, 0.25])
        expect = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
        assert abs(entropy(get_functional("von-neumann"), rho) - expect) < 1e-12
        assert abs(entropy(get_functional("renyi-2"), rho) + np.log(0.625)) < 1e-12
        assert abs(entropy(get_functional("renyi-0.5"), rho)
                   - 2 * np.log(np.sqrt(0.75) + np.sqrt(0.25))) < 1e-12
        assert abs(entropy(get_functional("neg-purity"), rho) + 0.625) < 1e-12

    @pytest.mark.parametrize("rank", [1, 2])
    def test_qubit_entropy_matches_the_eigvalsh_route(self, rank):
        f = get_functional("von-neumann")
        rng = np.random.default_rng(19 + rank)
        for _ in range(500):
            rho = random_density(2, rank=rank, seed=rng)
            assert abs(entropy(f, rho) - float(f(np.linalg.eigvalsh(rho.mat)))) <= 1.2e-14

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_functional("tsallis")

    @pytest.mark.parametrize("name", sorted(ENTROPY_FUNCTIONALS))
    def test_reduces_over_the_last_axis(self, name):
        # one call on a (2, 3, d) stack of spectra equals the call on each spectrum
        f = get_functional(name)
        rng = np.random.default_rng(15)
        lam = rng.dirichlet(np.ones(4), size=(2, 3))
        lam[0, 1, 2] = 0.0  # where von Neumann takes 0 log 0 = 0
        values = f(lam)
        assert values.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert values[idx] == f(lam[idx])

    @pytest.mark.parametrize("name", sorted(ENTROPY_FUNCTIONALS))
    def test_spectra_are_clamped_to_the_unit_interval(self, name):
        # a pure state's eigenvalues as eigvalsh may round them, just outside [0, 1]
        f = get_functional(name)
        assert f(np.array([[1 + 1e-12, -1e-12]])) == f(np.array([[1.0, 0.0]]))

    def test_registry_contents(self):
        assert set(ENTROPY_FUNCTIONALS) == {"von-neumann", "renyi-0.5",
                                            "renyi-2", "neg-purity"}

    def test_renyi2_concavity_guard(self):
        # renyi-2 is concave only on qubits; the registry records that
        assert get_functional("renyi-2").concave_max_dim == 2
        assert get_functional("von-neumann").concave_max_dim is None

    @pytest.mark.parametrize("name", sorted(ENTROPY_FUNCTIONALS))
    def test_concavity_spot_check(self, name):
        f = get_functional(name)
        rng = np.random.default_rng(hash(name) % 2**32)
        dims = [2] if f.concave_max_dim == 2 else [2, 3]
        for d in dims:
            for _ in range(300):
                rho, sigma = random_density(d, seed=rng), random_density(d, seed=rng)
                lam = rng.uniform()
                mix = DensityMatrix(lam * rho.mat + (1 - lam) * sigma.mat)
                gap = entropy(f, mix) - lam * entropy(f, rho) - (1 - lam) * entropy(f, sigma)
                assert gap >= -1e-9

    def test_renyi2_guard_is_conservative(self):
        # beyond qubits renyi-2 concavity is not certified, so the guarded
        # spot check above skips d=3; empirically the gap still looks
        # non-negative there, which the unasserted scan machinery explores
        f = get_functional("renyi-2")
        rng = np.random.default_rng(14)
        gaps = []
        for _ in range(200):
            rho, sigma = random_density(3, seed=rng), random_density(3, seed=rng)
            lam = rng.uniform()
            mix = DensityMatrix(lam * rho.mat + (1 - lam) * sigma.mat)
            gaps.append(entropy(f, mix) - lam * entropy(f, rho)
                        - (1 - lam) * entropy(f, sigma))
        # record-keeping only: no assertion on the open regime beyond finiteness
        assert np.isfinite(gaps).all()
