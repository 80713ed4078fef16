import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import power_iteration_spectrum, svd_norm
from tensorbound import (
    DimensionCapError,
    anticommutator,
    as_operator,
    commutator,
    hermitian_eig,
    kron,
    pauli,
    spectral_norm,
)
from tensorbound import linalg
from tensorbound.linalg import BATCH_ENTRIES, HERM_TOL_FACTOR, batches, frobenius_norms

I2 = np.eye(2, dtype=complex)
SX = pauli("x")
SY = pauli("y")
SZ = pauli("z")

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_hermitian(rng, dim):
    a = random_matrix(rng, dim)
    return (a + a.conj().T) / 2


class TestAsOperator:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            as_operator(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_operator(np.array([[np.nan, 0], [0, 1]]))

    def test_rejects_inf_imag(self):
        with pytest.raises(ValueError, match="finite"):
            as_operator(np.array([[1j * np.inf, 0], [0, 1]]))

    @pytest.mark.parametrize("entry", [complex(1, np.inf), complex(1, -np.inf), complex(0, np.nan)])
    def test_rejects_non_finite_imaginary_part_alone(self, entry):
        with pytest.raises(ValueError, match="finite"):
            as_operator(np.array([[entry, 0], [0, 1]]))
        with pytest.raises(ValueError, match="finite"):
            as_operator([[1, 0], [0, entry]])


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_sigma_z_tensor(self):
        assert np.array_equal(kron(SZ, SZ), np.diag([1, -1, -1, 1]).astype(complex))

    def test_two_spin_spectrum(self):
        b = kron(SZ, SZ) + kron(SX, SX)
        summary = hermitian_eig(b)
        assert np.allclose(summary.eigenvalues, [-2, 0, 0, 2], atol=1e-12)
        assert summary.spectral_norm == pytest.approx(2.0, abs=1e-12)

    def test_block_structure(self):
        rng = np.random.default_rng(3)
        a = random_matrix(rng, 2)
        b = random_matrix(rng, 3)
        k = kron(a, b)
        for i in range(2):
            for j in range(2):
                block = k[i * 3 : (i + 1) * 3, j * 3 : (j + 1) * 3]
                assert np.array_equal(block, a[i, j] * b)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_equals_numpy_kron(self, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, int(rng.integers(1, 6)))
        b = random_matrix(rng, int(rng.integers(1, 6)))
        assert np.array_equal(kron(a, b), np.kron(a, b))

    def test_scalars_and_lists(self):
        assert np.array_equal(kron([[2j]], [[3.0]]), np.array([[6j]]))
        a = [[1, 2j], [-3, 0.5]]
        b = [[0, 1], [1j, -1]]
        assert np.array_equal(kron(a, b), np.kron(np.array(a, complex), np.array(b, complex)))
        assert kron(a, b).dtype == complex

    def test_dimension_cap_message(self):
        with pytest.raises(DimensionCapError) as err:
            kron(np.eye(3), np.eye(2), dim_cap=5)
        assert str(err.value) == (
            "tensor product dimension 3*2 = 6 exceeds the cap 5; raise dim_cap to force assembly"
        )

    def test_dimension_cap(self):
        a = np.eye(64, dtype=complex)
        with pytest.raises(DimensionCapError, match="4096"):
            kron(a, np.eye(65, dtype=complex))
        # exactly at the cap is fine
        assert kron(a, np.eye(64, dtype=complex), dim_cap=4096).shape == (4096, 4096)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_norm_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, int(rng.integers(1, 5)))
        b = random_matrix(rng, int(rng.integers(1, 5)))
        lhs = spectral_norm(kron(a, b))
        rhs = spectral_norm(a) * spectral_norm(b)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_hermitian_iff_both_hermitian_or_both_skew(self, seed):
        rng = np.random.default_rng(seed)
        h1 = random_hermitian(rng, 3)
        h2 = random_hermitian(rng, 2)
        s1 = random_matrix(rng, 3)
        s1 = (s1 - s1.conj().T) / 2
        s2 = random_matrix(rng, 2)
        s2 = (s2 - s2.conj().T) / 2

        def defect(a):
            return np.max(np.abs(a - a.conj().T))

        assert defect(kron(h1, h2)) < 1e-12
        assert defect(kron(s1, s2)) < 1e-12
        # a nonzero hermitian (x) skew product cannot be Hermitian
        if spectral_norm(h1) > 1e-9 and spectral_norm(s2) > 1e-9:
            assert defect(kron(h1, s2)) > 1e-12


class TestCommutators:
    def test_self_commutator_zero(self):
        assert np.array_equal(commutator(SZ, SZ), np.zeros((2, 2)))

    def test_pauli_commutator_norm(self):
        assert spectral_norm(commutator(SZ, SX)) == 2.0

    def test_identity_commutes(self):
        rng = np.random.default_rng(0)
        a = random_matrix(rng, 4)
        assert np.allclose(commutator(a, np.eye(4)), 0)

    def test_anticommutator_pauli_zero(self):
        assert np.array_equal(anticommutator(SZ, SX), np.zeros((2, 2)))

    def test_anticommutator_identity(self):
        assert np.array_equal(anticommutator(I2, I2), 2 * np.eye(2))

    def test_anticommutator_zero_operator(self):
        rng = np.random.default_rng(1)
        a = random_matrix(rng, 3)
        assert np.array_equal(anticommutator(a, np.zeros((3, 3))), np.zeros((3, 3)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="equal dimensions"):
            commutator(I2, np.eye(3))
        with pytest.raises(ValueError, match="equal dimensions"):
            anticommutator(I2, np.eye(3))

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_adjointness_for_hermitian_inputs(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 6))
        a = random_hermitian(rng, dim)
        b = random_hermitian(rng, dim)
        c = commutator(a, b)
        ac = anticommutator(a, b)
        assert np.max(np.abs(c.conj().T + c)) < 1e-12
        assert np.max(np.abs(ac.conj().T - ac)) < 1e-12

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_mixed_term_decomposition(self, seed):
        # {a,b} (x) {c,d} + [a,b] (x) [c,d] == 2 ((a(x)c)(b(x)d) + (b(x)d)(a(x)c))
        rng = np.random.default_rng(seed)
        a, b = (random_hermitian(rng, 2) for _ in range(2))
        c, d = (random_hermitian(rng, 3) for _ in range(2))
        lhs = 0.5 * (
            kron(anticommutator(a, b), anticommutator(c, d))
            + kron(commutator(a, b), commutator(c, d))
        )
        u = kron(a, c)
        v = kron(b, d)
        rhs = u @ v + v @ u
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestHermitianEig:
    def test_identity(self):
        summary = hermitian_eig(I2)
        assert np.array_equal(summary.eigenvalues, [1.0, 1.0])
        assert summary.spectral_norm == 1.0

    def test_heisenberg_spectrum(self):
        b = kron(SX, SX) + kron(SY, SY) + kron(SZ, SZ)
        summary = hermitian_eig(b)
        assert np.allclose(summary.eigenvalues, [-3, 1, 1, 1], atol=1e-10)
        assert summary.spectral_norm == pytest.approx(3.0, abs=1e-10)
        assert summary.lambda_min == pytest.approx(-3.0, abs=1e-10)
        assert summary.lambda_max == pytest.approx(1.0, abs=1e-10)

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        a = (a + a.conj().T) / 2
        summary = hermitian_eig(a)
        reference = power_iteration_spectrum(a)
        assert np.max(np.abs(summary.eigenvalues - reference)) < 1e-8

    def test_trace_and_ordering(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        a = (a + a.conj().T) / 2
        summary = hermitian_eig(a)
        assert len(summary.eigenvalues) == 6
        assert np.all(np.diff(summary.eigenvalues) >= 0)
        assert np.sum(summary.eigenvalues) == pytest.approx(np.trace(a).real, rel=1e-10)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match=r"\|\|a - a\*\|\|"):
            hermitian_eig(bad)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_summary_invariants(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, int(rng.integers(1, 7)))
        summary = hermitian_eig(a)
        assert summary.spectral_norm == max(
            abs(summary.lambda_min), abs(summary.lambda_max)
        )
        assert len(summary.eigenvalues) == a.shape[0]


def with_defect(rng, n, ratio):
    """A random n x n matrix H + e K (H Hermitian, K skew-Hermitian) whose
    defect ||a - a*||_F = 2 e ||K||_F is ``ratio`` times the tolerance
    HERM_TOL_FACTOR * ||a||_F, since ||a||_F^2 = ||H||_F^2 + e^2 ||K||_F^2."""
    h = random_hermitian(rng, n)
    k = random_matrix(rng, n)
    k = (k - k.conj().T) / 2
    t = ratio * HERM_TOL_FACTOR
    e = t * np.linalg.norm(h) / (np.linalg.norm(k) * np.sqrt(4 - t * t))
    return h + e * k


# hermitian_eig checks n = 16, 300 and 600 in 1, 2 and 6 row blocks of
# at most BATCH_ENTRIES entries.
BLOCK_SIZES = [16, 300, 600]


class TestHermitianEigRowBlocks:
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("side", [1 - 1e-12, 1 + 1e-12])
    def test_defect_matches_full_norm(self, monkeypatch, n, side):
        # With the tolerance 1e-12 (relative) above the full-matrix defect
        # the matrix is accepted, and 1e-12 below it rejected: the blockwise
        # defect lies within 1e-12 relative of the full-matrix one.
        a = with_defect(np.random.default_rng(n), n, 0.5)
        full = np.linalg.norm(a - a.conj().T)
        monkeypatch.setattr(linalg, "HERM_TOL_FACTOR", side * full / np.linalg.norm(a))
        if side > 1:
            hermitian_eig(a)
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                hermitian_eig(a)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_defect_just_above_tolerance_raises(self, n):
        rng = np.random.default_rng(n + 1)
        hermitian_eig(with_defect(rng, n, 1 - 1e-6))
        a = with_defect(rng, n, 1 + 1e-6)
        defect = np.linalg.norm(a - a.conj().T)
        tol = HERM_TOL_FACTOR * np.linalg.norm(a)
        with pytest.raises(ValueError) as err:
            hermitian_eig(a)
        assert str(err.value) == (
            f"matrix is not Hermitian: ||a - a*||_F = {defect:.3e} "
            f"exceeds tolerance {tol:.3e}"
        )

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, -np.inf)])
    def test_rejects_non_finite_entries(self, n, entry):
        a = random_hermitian(np.random.default_rng(n + 2), n)
        a[n - 1, n // 2] = entry
        with pytest.raises(ValueError, match="finite"):
            hermitian_eig(a)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("where", ["symmetric", "diagonal"])
    def test_rejects_hermitian_placed_inf(self, n, where):
        # the entries stay Hermitian, so only the finiteness scan can catch them
        a = random_hermitian(np.random.default_rng(n + 3), n)
        i, j = (n - 1, n // 2) if where == "symmetric" else (n // 2, n // 2)
        a[i, j] = a[j, i] = np.inf
        with pytest.raises(ValueError) as err:
            hermitian_eig(a)
        assert str(err.value) == "operator entries must be finite (no NaN/Inf)"


class TestBatches:
    @pytest.mark.parametrize("count, dim", [(0, 3), (1, 3), (12, 3), (12, 96), (7, 256), (5000, 4)])
    def test_cover_the_stack_in_order_within_the_budget(self, count, dim):
        parts = batches(count, dim)
        covered = [i for part in parts for i in range(count)[part]]
        assert covered == list(range(count))
        sizes = [len(range(count)[part]) for part in parts]
        assert all(size * dim * dim <= BATCH_ENTRIES for size in sizes if size > 1)
        assert len(parts) == max(1, -(-count // max(1, BATCH_ENTRIES // dim ** 2)))


class TestFrobeniusNorms:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_matches_numpy_per_matrix(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 7))
        stack = np.stack([random_matrix(rng, dim) for _ in range(int(rng.integers(1, 5)))])
        expected = [np.linalg.norm(a) for a in stack]
        assert frobenius_norms(stack) == pytest.approx(expected, rel=1e-14)

    def test_empty_stack(self):
        assert frobenius_norms(np.zeros((0, 2, 2), dtype=complex)).shape == (0,)


class TestSpectralNorm:
    def test_zero(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_pauli_x(self):
        assert spectral_norm(SX) == pytest.approx(1.0, abs=1e-14)

    def test_pauli_commutator(self):
        assert spectral_norm(2 * SZ @ SX) == 2.0

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_max_abs_eigenvalue(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, int(rng.integers(1, 7)))
        expected = float(np.max(np.abs(hermitian_eig(a).eigenvalues)))
        if expected == 0.0:
            assert spectral_norm(a) == 0.0
        else:
            assert spectral_norm(a) == pytest.approx(expected, rel=1e-10)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_svd_on_general_matrices(self, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, int(rng.integers(1, 7)))
        assert spectral_norm(a) == pytest.approx(svd_norm(a), rel=1e-10, abs=1e-12)

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_stack_matches_each_matrix_exactly(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 7))
        stack = np.stack([random_matrix(rng, dim) for _ in range(int(rng.integers(1, 6)))])
        norms = spectral_norm(stack)
        assert norms.shape == (len(stack),)
        assert norms.tolist() == [spectral_norm(a) for a in stack]
        assert spectral_norm(stack[:0]).shape == (0,)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_stack_with_non_finite_entries_is_refused(self, entry):
        with pytest.raises(ValueError, match="spectral norm is not finite"):
            spectral_norm(np.full((2, 2, 2), entry))

    @pytest.mark.parametrize("shape", [(2, 2, 3), (2, 0, 0)])
    def test_stack_of_non_square_or_empty_matrices_is_refused(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"square matrix, got shape {shape}")):
            spectral_norm(np.ones(shape))

    def test_overflowing_gram_product_is_refused(self):
        # finite entries whose a* a overflows: the norm is 2e200, but not computable this way
        with pytest.raises(ValueError, match="spectral norm is not finite"):
            spectral_norm(np.full((2, 2), 1e200))
