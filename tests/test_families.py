import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eig2x2_hermitian, involution_defect, svd_norm
from tensorbound import clifford_generators, families, pauli, random_operator
from tensorbound.families import ENSEMBLE_KINDS, _norms_from_gram, validate
from tensorbound.linalg import BATCH_ENTRIES, spectral_norm

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestPauli:
    def test_z(self):
        assert np.array_equal(pauli("z"), np.diag([1, -1]).astype(complex))

    def test_x(self):
        assert np.array_equal(pauli("x"), np.array([[0, 1], [1, 0]], dtype=complex))

    def test_y_convention(self):
        assert np.array_equal(pauli("y"), np.array([[0, -1j], [1j, 0]]))

    def test_x_z_anticommute(self):
        x, z = pauli("x"), pauli("z")
        assert np.array_equal(x @ z + z @ x, np.zeros((2, 2)))

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown Pauli"):
            pauli("w")

    def test_returns_copy(self):
        a = pauli("z")
        a[0, 0] = 7
        assert pauli("z")[0, 0] == 1


class TestValidate:
    def test_pauli_x_is_unitary_involution(self):
        cert = validate(pauli("x")[None])
        assert cert.is_hermitian.tolist() == [True]
        assert cert.norm[0] == pytest.approx(1.0, abs=1e-14)
        assert cert.is_contraction.tolist() == [True]
        assert involution_defect(pauli("x")) == 0.0

    def test_scaled_pauli_not_contraction(self):
        cert = validate(2 * pauli("x")[None])
        assert cert.is_contraction.tolist() == [False]
        assert cert.norm[0] == pytest.approx(2.0, abs=1e-12)

    def test_half_sum_is_strict_contraction(self):
        a = 0.5 * (pauli("z") + pauli("x"))
        lo, hi = eig2x2_hermitian(a)
        assert hi == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
        assert lo == pytest.approx(-math.sqrt(2) / 2, abs=1e-15)
        cert = validate(a[None])
        assert cert.is_contraction.tolist() == [True]
        assert cert.norm[0] == pytest.approx(math.sqrt(2) / 2, rel=1e-12)

    def test_non_hermitian_reported_not_raised(self):
        cert = validate(np.array([[[0, 1], [0, 0]]], dtype=complex))
        assert cert.is_hermitian.tolist() == [False]
        assert cert.hermiticity_defect[0] > 1.0

    def test_entries_too_large_give_an_infinite_norm(self):
        # a* a of the first matrix overflows; its batch-mate's norm is untouched
        big = np.full((2, 2), 1e200, dtype=complex)
        cert = validate(np.stack([big, pauli("x")]))
        assert cert.norm.tolist() == [np.inf, validate(pauli("x")[None]).norm[0]]
        assert cert.is_contraction.tolist() == [False, True]


OPERATOR_KINDS = ("hermitian", "non_hermitian", "scaled_above_one", "involution")


def draw_operator(rng, kind, dim):
    """One d x d operator of the given kind, from a numpy Generator."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if kind == "non_hermitian":
        return g
    if kind == "involution":
        q, _ = np.linalg.qr(g)
        a = (q * rng.choice([-1.0, 1.0], dim)) @ q.conj().T
        return (a + a.conj().T) / 2
    h = (g + g.conj().T) / 2
    top = np.abs(np.linalg.eigvalsh(h)).max()
    scale = rng.uniform(1.01, 3.0) if kind == "scaled_above_one" else rng.uniform(0.0, 1.0)
    return h * (scale / top) if top > 0 else h


def gram_norm(a):
    """_norms_from_gram of one matrix, its Gram product formed as validate forms it."""
    stack = a[None]
    return _norms_from_gram(np.swapaxes(stack.conj(), -1, -2) @ stack)[0]


@st.composite
def operator_stacks(draw):
    """(kinds, stack): up to 6 operators of dimension 1..6, of mixed kinds."""
    dim = draw(st.integers(min_value=1, max_value=6))
    kinds = draw(st.lists(st.sampled_from(OPERATOR_KINDS), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(seeds))
    return kinds, np.stack([draw_operator(rng, kind, dim) for kind in kinds])


class TestValidateStack:
    @given(operator_stacks())
    @settings(max_examples=150, deadline=None)
    def test_each_entry_matches_the_single_matrix_certificate(self, case):
        kinds, stack = case
        cert = validate(stack)
        assert cert.norm.shape == (len(kinds),)
        for k, (kind, a) in enumerate(zip(kinds, stack)):
            single = validate(a[None])
            assert cert.is_hermitian[k] == single.is_hermitian[0] == (kind != "non_hermitian")
            assert cert.is_contraction[k] == single.is_contraction[0]
            # the same arithmetic as random_operator's norms, to the last bit
            assert cert.norm[k] == single.norm[0] == gram_norm(a)
            assert cert.norm[k] == pytest.approx(svd_norm(a), rel=1e-10, abs=1e-12)
            if kind == "scaled_above_one":
                assert not cert.is_contraction[k]

    def test_stack_spanning_several_batches(self):
        # 96 x 96 operators go through validate 7 at a time
        rng = np.random.default_rng(5)
        kinds = OPERATOR_KINDS * 3
        stack = np.stack([draw_operator(rng, kind, 96) for kind in kinds])
        cert = validate(stack)
        for k, a in enumerate(stack):
            single = validate(a[None])
            assert cert.is_hermitian[k] == single.is_hermitian[0] == (kinds[k] != "non_hermitian")
            assert cert.is_contraction[k] == single.is_contraction[0]
            assert cert.norm[k] == single.norm[0] == gram_norm(a)
            assert cert.norm[k] == pytest.approx(svd_norm(a), rel=1e-10, abs=1e-12)
            assert cert.hermiticity_defect[k] == pytest.approx(single.hermiticity_defect[0], rel=1e-13)

    @pytest.mark.parametrize("count, dim", [(1, 3), (12, 3), (12, 96), (7, 256), (5000, 4)])
    def test_batches_cover_the_stack_in_order_within_the_budget(self, count, dim, monkeypatch):
        seen = []
        defects_and_norms = families._defects_and_norms

        def recording(part):
            seen.append(part)
            return defects_and_norms(part)

        monkeypatch.setattr(families, "_defects_and_norms", recording)
        stack = np.arange(count, dtype=complex)[:, None, None] * np.eye(dim)
        cert = validate(stack)
        # matrix k is k I, so the batches in call order spell the stack
        assert np.concatenate([part[:, 0, 0].real for part in seen]).tolist() == list(range(count))
        assert all(part.size <= BATCH_ENTRIES or len(part) == 1 for part in seen)
        assert len(seen) == -(-count // max(1, BATCH_ENTRIES // dim ** 2))
        assert cert.norm == pytest.approx(np.arange(count), rel=1e-14)


class TestCliffordGenerators:
    def test_single_generator(self):
        (g,) = clifford_generators(1)
        assert np.array_equal(g, pauli("x"))

    def test_two_generators(self):
        g1, g2 = clifford_generators(2)
        assert np.array_equal(g1, pauli("x"))
        assert np.array_equal(g2, pauli("y"))
        assert [svd_norm(g1 @ g2 + g2 @ g1), svd_norm(g1 @ g2 - g2 @ g1)] == [0.0, 2.0]

    def test_three_generators_dimension_and_anticommutation(self):
        gens = clifford_generators(3)
        assert all(g.shape == (4, 4) for g in gens)
        for i in range(3):
            for j in range(i + 1, 3):
                product_sum = gens[i] @ gens[j] + gens[j] @ gens[i]
                assert np.array_equal(product_sum, np.zeros((4, 4)))

    @pytest.mark.parametrize("m", range(1, 8))
    def test_exact_involutions_and_anticommutation(self, m):
        gens = clifford_generators(m)
        dim = 2 ** ((m + 1) // 2)
        assert len(gens) == m
        for g in gens:
            assert g.shape == (dim, dim)
            assert np.array_equal(g @ g, np.eye(dim))
            assert involution_defect(g) == 0.0
        for i in range(m):
            for j in range(i + 1, m):
                assert np.array_equal(gens[i] @ gens[j], -gens[j] @ gens[i])

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_tensor_squares_commute(self, m):
        gens = clifford_generators(m)
        doubled = [np.kron(g, g) for g in gens]
        for i in range(m):
            for j in range(i + 1, m):
                assert np.array_equal(
                    doubled[i] @ doubled[j], doubled[j] @ doubled[i]
                )

    def test_dimension_cap(self):
        message = "25 generators need dimension 2^13 = 8192, above the cap 4096"
        with pytest.raises(ValueError, match=re.escape(message)):
            clifford_generators(25)

    def test_needs_positive_m(self):
        with pytest.raises(ValueError):
            clifford_generators(0)


class TestRandomOperator:
    def test_contractions_stay_contractions(self):
        # 1000 seeded draws per the ensemble contract, seed s at dimension 1 + s % 6
        for dim in range(1, 7):
            stack = random_operator("contraction", dim, range(dim - 1, 1000, 6))
            assert spectral_norm(stack).max() <= 1.0 + 1e-12

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_involutions_square_to_identity(self, seed):
        dim = 1 + seed % 5
        (op,) = random_operator("unitary_involution", dim, [seed])
        assert svd_norm(op @ op - np.eye(dim)) <= 1e-10
        assert involution_defect(op) <= 1e-9

    @pytest.mark.parametrize(
        "kind, dim, digest",
        [
            ("contraction", 1, "d147386b60e93d710b678ffd6f46cc62ec4d22aa03363658d0d76609edd7d254"),
            ("contraction", 3, "d02f6da5e1e4b1c8de03d3557f849879d28347a117fbaa2a8b5e6a0ae4ed2726"),
            ("contraction", 48, "9790110ab054904857e9edd740332e3f1ed1d9e1e009d64b03bfe27c4b8bd597"),
            ("unitary_involution", 1, "649b2b799614daade2551a143abb2f9fc1b4a8a1b772a41f4f42b28541a9dbee"),
            ("unitary_involution", 3, "b39b227d0422d503b6fc00cce7a2db9a234350edea85b8fd0f55cae2ff93fa3a"),
            ("unitary_involution", 48, "319347ffbc6ddd90d71ef43f10944016207d026027315715b50d953093aba748"),
        ],
    )
    def test_stacks_are_pinned_bitwise(self, kind, dim, digest):
        # sha256 of the complex128 bytes; every sweep trial is drawn from these
        # stacks, so a moved bit in the arithmetic fails here first
        stack = random_operator(kind, dim, [0, 1, 7, 12345, 2**64 - 1])
        assert hashlib.sha256(stack.tobytes()).hexdigest() == digest

    def test_deterministic_in_seed(self):
        first = random_operator("contraction", 4, [123456789])
        assert np.array_equal(first, random_operator("contraction", 4, [123456789]))
        assert not np.array_equal(first, random_operator("contraction", 4, [123456790]))

    def test_validate_accepts_every_kind(self):
        for kind in ("contraction", "unitary_involution"):
            assert validate(random_operator(kind, 3, [7])).is_contraction.tolist() == [True]

    @given(
        st.sampled_from(ENSEMBLE_KINDS),
        st.integers(min_value=1, max_value=6),
        st.lists(
            st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_stack_is_bitwise_the_per_config_calls(self, kind, dim, stack_seeds):
        stack = random_operator(kind, dim, stack_seeds)
        assert stack.shape == (len(stack_seeds), dim, dim)
        for seed, op in zip(stack_seeds, stack):
            assert op.tobytes() == random_operator(kind, dim, [seed])[0].tobytes()

    @pytest.mark.parametrize(
        "kind, dim, seeds, message",
        [
            ("haar", 2, [1], "kind must be one of"),
            ("contraction", 0, [1], "dim must be positive, got 0"),
            ("contraction", 2, [], "seeds must not be empty"),
            ("contraction", 2, [1, -1], "seeds must be unsigned 64-bit integers, got -1"),
            ("unitary_involution", 2, [2**64], f"seeds must be unsigned 64-bit integers, got {2**64}"),
        ],
        ids=["unknown-kind", "dim-zero", "empty-seeds", "seed-negative", "seed-too-large"],
    )
    def test_rejects_bad_arguments(self, kind, dim, seeds, message):
        with pytest.raises(ValueError, match=message):
            random_operator(kind, dim, seeds)
