import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eig2x2_hermitian, involution_defect
from tensorbound import (
    DimensionCapError,
    clifford_generators,
    pauli,
    random_operator,
    spectral_norm,
    validate,
)
from tensorbound.families import ENSEMBLE_KINDS

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
            # the same arithmetic as spectral_norm, to the last bit
            assert cert.norm[k] == single.norm[0] == spectral_norm(a[None])[0]
            if kind == "scaled_above_one":
                assert not cert.is_contraction[k]

    def test_stack_spanning_several_batches(self):
        # 96 x 96 operators go through linalg.batches 7 at a time
        rng = np.random.default_rng(5)
        kinds = OPERATOR_KINDS * 3
        stack = np.stack([draw_operator(rng, kind, 96) for kind in kinds])
        cert = validate(stack)
        for k, a in enumerate(stack):
            single = validate(a[None])
            assert cert.is_hermitian[k] == single.is_hermitian[0] == (kinds[k] != "non_hermitian")
            assert cert.is_contraction[k] == single.is_contraction[0]
            assert cert.norm[k] == single.norm[0] == spectral_norm(a[None])[0]
            assert cert.hermiticity_defect[k] == pytest.approx(single.hermiticity_defect[0], rel=1e-13)

    def test_empty_stack(self):
        cert = validate(np.zeros((0, 3, 3), dtype=complex))
        assert cert.norm.shape == cert.is_hermitian.shape == (0,)

    @pytest.mark.parametrize(
        "stack",
        [np.zeros((2, 2, 3)), np.zeros((1, 0, 0)), np.full((1, 2, 2), np.nan), np.eye(2)],
    )
    def test_rejects_malformed_stacks(self, stack):
        with pytest.raises(ValueError, match="finite square"):
            validate(stack)


class TestCliffordGenerators:
    def test_single_generator(self):
        (g,) = clifford_generators(1)
        assert np.array_equal(g, pauli("x"))

    def test_two_generators(self):
        g1, g2 = clifford_generators(2)
        assert np.array_equal(g1, pauli("x"))
        assert np.array_equal(g2, pauli("y"))
        assert spectral_norm(np.stack([g1 @ g2 + g2 @ g1, g1 @ g2 - g2 @ g1])).tolist() == [0.0, 2.0]

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
        with pytest.raises(DimensionCapError, match=re.escape(message)):
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
        assert spectral_norm((op @ op - np.eye(dim))[None])[0] <= 1e-10
        assert involution_defect(op) <= 1e-9

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
