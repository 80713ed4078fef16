import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import power_iteration_spectrum, svd_norm
from tensorbound import as_operator, pauli, spectral_norm
from tensorbound.linalg import BATCH_ENTRIES, batches, frobenius_norms, hermitian_eig, kron

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

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_norm_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, int(rng.integers(1, 5)))
        b = random_matrix(rng, int(rng.integers(1, 5)))
        lhs = spectral_norm(kron(a, b)[None])[0]
        rhs = spectral_norm(a[None])[0] * spectral_norm(b[None])[0]
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
        if spectral_norm(h1[None])[0] > 1e-9 and spectral_norm(s2[None])[0] > 1e-9:
            assert defect(kron(h1, s2)) > 1e-12


class TestCommutators:
    """Commutators ab - ba and anticommutators ab + ba, formed the way
    bounds._pair_norms forms them, measured by spectral_norm."""

    def test_self_commutator_zero(self):
        assert np.array_equal(SZ @ SZ - SZ @ SZ, np.zeros((2, 2)))

    def test_pauli_commutator_norm(self):
        assert spectral_norm((SZ @ SX - SX @ SZ)[None]).tolist() == [2.0]

    def test_identity_commutes(self):
        rng = np.random.default_rng(0)
        a = random_matrix(rng, 4)
        assert np.allclose(a @ np.eye(4) - np.eye(4) @ a, 0)

    def test_anticommutator_pauli_zero(self):
        assert np.array_equal(SZ @ SX + SX @ SZ, np.zeros((2, 2)))

    def test_anticommutator_identity(self):
        assert np.array_equal(I2 @ I2 + I2 @ I2, 2 * np.eye(2))

    def test_anticommutator_zero_operator(self):
        rng = np.random.default_rng(1)
        a = random_matrix(rng, 3)
        zero = np.zeros((3, 3))
        assert np.array_equal(a @ zero + zero @ a, np.zeros((3, 3)))

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_adjointness_for_hermitian_inputs(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 6))
        a = random_hermitian(rng, dim)
        b = random_hermitian(rng, dim)
        c = a @ b - b @ a
        ac = a @ b + b @ a
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
            kron(a @ b + b @ a, c @ d + d @ c)
            + kron(a @ b - b @ a, c @ d - d @ c)
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

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_reads_only_the_lower_triangle(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, int(rng.integers(1, 40)))
        expected = hermitian_eig(a).eigenvalues.tobytes()
        assert hermitian_eig(np.tril(a)).eigenvalues.tobytes() == expected
        # nor the imaginary part of the diagonal
        lower = np.tril(a) + np.diag(1j * rng.normal(size=len(a)))
        assert hermitian_eig(lower).eigenvalues.tobytes() == expected

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
        assert spectral_norm(np.zeros((1, 3, 3))).tolist() == [0.0]

    def test_pauli_x(self):
        assert spectral_norm(SX[None])[0] == pytest.approx(1.0, abs=1e-14)

    def test_pauli_commutator(self):
        assert spectral_norm((2 * SZ @ SX)[None]).tolist() == [2.0]

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_max_abs_eigenvalue(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, int(rng.integers(1, 7)))
        expected = float(np.max(np.abs(hermitian_eig(a).eigenvalues)))
        (norm,) = spectral_norm(a[None])
        if expected == 0.0:
            assert norm == 0.0
        else:
            assert norm == pytest.approx(expected, rel=1e-10)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_svd_on_general_matrices(self, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, int(rng.integers(1, 7)))
        assert spectral_norm(a[None])[0] == pytest.approx(svd_norm(a), rel=1e-10, abs=1e-12)

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_stack_matches_each_matrix_exactly(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 7))
        stack = np.stack([random_matrix(rng, dim) for _ in range(int(rng.integers(1, 6)))])
        norms = spectral_norm(stack)
        assert norms.shape == (len(stack),)
        assert norms.tolist() == [spectral_norm(a[None])[0] for a in stack]
        assert spectral_norm(stack[:0]).shape == (0,)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_stack_with_non_finite_entries_is_refused(self, entry):
        with pytest.raises(ValueError, match="spectral norm is not finite"):
            spectral_norm(np.full((2, 2, 2), entry))

    @pytest.mark.parametrize("shape", [(2, 2, 3), (2, 0, 0), (2, 2)])
    def test_stack_of_non_square_or_empty_matrices_is_refused(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"square matrix, got shape {shape}")):
            spectral_norm(np.ones(shape))

    def test_overflowing_gram_product_is_refused(self):
        # finite entries whose a* a overflows: the norm is 2e200, but not computable this way
        with pytest.raises(ValueError, match="spectral norm is not finite"):
            spectral_norm(np.full((1, 2, 2), 1e200))
