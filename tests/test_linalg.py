import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import power_iteration_spectrum, svd_norm
from tensorbound import as_operator, pauli
from tensorbound.linalg import (
    BATCH_ENTRIES,
    frobenius_norms,
    hermitian_eig,
    kron,
    spectral_norm,
)

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


def integer_stack(rng, *shape):
    """A stack of complex matrices with entries in {-4..4} + i {-4..4}:
    every product and sum a tensor sum of them forms is exact in binary64."""
    return rng.integers(-4, 5, shape) + 1j * rng.integers(-4, 5, shape)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2[None], I2[None]), np.eye(4))

    def test_sigma_z_tensor(self):
        assert np.array_equal(kron(SZ[None], SZ[None]), np.diag([1, -1, -1, 1]).astype(complex))

    def test_two_spin_spectrum(self):
        b = kron(np.stack([SZ, SX]), np.stack([SZ, SX]))
        summary = hermitian_eig(b)
        assert np.allclose(summary.eigenvalues, [-2, 0, 0, 2], atol=1e-12)
        assert summary.spectral_norm == pytest.approx(2.0, abs=1e-12)

    def test_block_structure(self):
        rng = np.random.default_rng(3)
        a = integer_stack(rng, 3, 2, 2)
        b = integer_stack(rng, 3, 3, 3)
        k = kron(a, b)
        for i in range(2):
            for j in range(2):
                block = k[i * 3 : (i + 1) * 3, j * 3 : (j + 1) * 3]
                assert np.array_equal(block, sum(a[t, i, j] * b[t] for t in range(3)))

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_equals_numpy_kron(self, seed):
        # the sum of np.kron, term by term, wherever the arithmetic is exact;
        # rectangular, as exact_reference's strips are
        rng = np.random.default_rng(seed)
        k, p, q, r, s = (int(v) for v in rng.integers(1, 6, 5))
        a, b = integer_stack(rng, k, p, q), integer_stack(rng, k, r, s)
        expected = sum(np.kron(x, y) for x, y in zip(a, b))
        assert kron(a, b).shape == (p * r, q * s)
        assert np.array_equal(kron(a, b), expected)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_within_rounding_of_the_numpy_kron_sum(self, seed):
        # each entry is a sum of k complex products, computed in any order
        # within sqrt(2) gamma_{k+1} of the sum of their moduli (Higham,
        # Lemma 3.5 and (3.4)); the two computations within twice that
        rng = np.random.default_rng(seed)
        k, p, q = (int(v) for v in rng.integers(1, 8, 3))
        a = rng.normal(size=(k, p, p)) + 1j * rng.normal(size=(k, p, p))
        b = rng.normal(size=(k, q, q)) + 1j * rng.normal(size=(k, q, q))
        u = np.finfo(float).eps / 2
        gamma = (k + 1) * u / (1 - (k + 1) * u)
        moduli = sum(np.kron(np.abs(x), np.abs(y)) for x, y in zip(a, b))
        error = np.abs(kron(a, b) - sum(np.kron(x, y) for x, y in zip(a, b)))
        assert np.all(error <= 2 * math.sqrt(2) * gamma * moduli)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_norm_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, int(rng.integers(1, 5)))
        b = random_matrix(rng, int(rng.integers(1, 5)))
        assert svd_norm(kron(a[None], b[None])) == pytest.approx(
            svd_norm(a) * svd_norm(b), rel=1e-9
        )

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

        def defect(a, b):
            k = kron(a[None], b[None])
            return np.max(np.abs(k - k.conj().T))

        assert defect(h1, h2) < 1e-12
        assert defect(s1, s2) < 1e-12
        # a nonzero hermitian (x) skew product cannot be Hermitian
        if svd_norm(h1) > 1e-9 and svd_norm(s2) > 1e-9:
            assert defect(h1, s2) > 1e-12


class TestCommutators:
    """Commutators ab - ba and anticommutators ab + ba of Hermitian a, b, and
    the Hermitian forms i(P - P*) and P + P* of P = ab that bounds._pair_norms
    measures with spectral_norm."""

    def test_self_commutator_zero(self):
        assert np.array_equal(SZ @ SZ - SZ @ SZ, np.zeros((2, 2)))

    def test_pauli_commutator_norm(self):
        p = SZ @ SX
        assert spectral_norm((1j * (p - p.conj().T))[None]).tolist() == [2.0]

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
        lhs = 0.5 * kron(
            np.stack([a @ b + b @ a, a @ b - b @ a]), np.stack([c @ d + d @ c, c @ d - d @ c])
        )
        u = kron(a[None], c[None])
        v = kron(b[None], d[None])
        rhs = u @ v + v @ u
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestHermitianEig:
    def test_identity(self):
        summary = hermitian_eig(I2)
        assert np.array_equal(summary.eigenvalues, [1.0, 1.0])
        assert summary.spectral_norm == 1.0

    def test_heisenberg_spectrum(self):
        paulis = np.stack([SX, SY, SZ])
        b = kron(paulis, paulis)
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

    def test_real_solver_only_when_every_imaginary_part_is_zero(self, monkeypatch):
        # one nonzero imaginary part anywhere, below, on or above the
        # diagonal, and however small, keeps the complex solver
        dtypes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: dtypes.append(a.dtype) or eigvalsh(a))
        rng = np.random.default_rng(6)
        a = rng.normal(size=(5, 5)).astype(complex)
        real = hermitian_eig(a + a.T).eigenvalues
        assert dtypes == [np.float64]
        for entry in [(3, 1), (2, 2), (1, 3)]:
            b = a + a.T
            b[entry] += 5e-324j
            assert hermitian_eig(b).eigenvalues == pytest.approx(real, rel=0, abs=1e-13)
            assert dtypes.pop() == np.complex128

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
        assert (summary.lambda_min, summary.lambda_max) == (
            summary.eigenvalues[0], summary.eigenvalues[-1]
        )
        assert (summary.method, summary.steps, summary.residual) == ("dense", None, None)


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
        (norm,) = spectral_norm(np.zeros((1, 3, 3), dtype=complex))
        assert norm == 0.0 and math.copysign(1.0, norm) == 1.0  # never -0.0

    def test_pauli_x(self):
        assert spectral_norm(SX[None])[0] == pytest.approx(1.0, abs=1e-14)

    def test_pauli_commutator(self):
        # i[Z, X] = i(2iY) = -2Y
        assert spectral_norm((1j * (SZ @ SX - SX @ SZ))[None]).tolist() == [2.0]

    def test_one_by_one(self):
        stack = np.array([[[-3.0]], [[0.5]], [[0.0]], [[-0.0]]], dtype=complex)
        norms = spectral_norm(stack)
        assert norms.tolist() == [3.0, 0.5, 0.0, 0.0]
        assert np.copysign(1.0, norms).tolist() == [1.0] * 4

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
    def test_agrees_with_svd_on_hermitian_stacks(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 7))
        stack = np.stack([random_hermitian(rng, dim) for _ in range(int(rng.integers(1, 6)))])
        expected = [svd_norm(a) for a in stack]
        assert spectral_norm(stack) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_agrees_with_svd_on_a_stack_of_several_batches(self):
        # 40 matrices of d = 64 fill three batches of BATCH_ENTRIES entries
        rng = np.random.default_rng(11)
        dim = 64
        assert -(-40 // (BATCH_ENTRIES // dim ** 2)) == 3
        stack = np.stack([random_hermitian(rng, dim) for _ in range(40)])
        stack[7] = 0.0
        expected = [svd_norm(a) for a in stack]
        assert spectral_norm(stack) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_stack_matches_each_matrix_exactly(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 7))
        stack = np.stack([random_hermitian(rng, dim) for _ in range(int(rng.integers(1, 6)))])
        norms = spectral_norm(stack)
        assert norms.shape == (len(stack),)
        assert norms.tolist() == [spectral_norm(a[None])[0] for a in stack]
        assert spectral_norm(stack[:0]).shape == (0,)
