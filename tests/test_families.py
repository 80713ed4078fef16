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


NON_HERMITIAN = np.array([[0, 1], [0, 0]], dtype=complex)
TOO_LARGE = "entries too large: ||a||_F^2 or ||a - a*||_F^2 overflows"


class TestValidate:
    def test_pauli_x_is_unitary_involution(self):
        assert validate(pauli("x")[None]) is None
        assert involution_defect(pauli("x")) == 0.0

    def test_scaled_pauli_not_contraction(self):
        assert validate(2 * pauli("x")[None]) == (0, "not a contraction, norm 2 > 1")

    def test_half_sum_is_strict_contraction(self):
        a = 0.5 * (pauli("z") + pauli("x"))
        lo, hi = eig2x2_hermitian(a)
        assert hi == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
        assert lo == pytest.approx(-math.sqrt(2) / 2, abs=1e-15)
        assert validate(a[None]) is None

    def test_non_hermitian_reported_not_raised(self):
        # ||N - N*||_F = sqrt(2); 3 N also fails the contraction check, but hermiticity comes first
        reason = "not self-adjoint, hermiticity defect 1.414e+00"
        assert validate(NON_HERMITIAN[None]) == (0, reason)
        assert validate(3 * NON_HERMITIAN[None]) == (0, "not self-adjoint, hermiticity defect 4.243e+00")

    def test_entries_too_large_come_first(self):
        big = np.full((2, 2), 1e200, dtype=complex)
        assert validate(np.stack([big, 2 * pauli("x")])) == (0, TOO_LARGE)
        assert validate(np.stack([pauli("x"), big])) == (1, TOO_LARGE)

    def test_entries_too_large_leave_the_batch_mates_verdict(self):
        # a* a of the overflowing matrix is zeroed before the one eigvalsh of the batch
        big = np.full((2, 2), 1e200, dtype=complex)
        for mate in (2 * pauli("x"), 0.5 * (pauli("z") + 2 * pauli("x")), NON_HERMITIAN):
            assert validate(np.stack([mate, big])) == validate(mate[None])
            assert validate(mate[None])[0] == 0


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


def single_verdict(kind, a):
    """validate of one matrix, checked against what its kind promises."""
    verdict = validate(a[None])
    if kind == "non_hermitian":
        assert verdict[0] == 0 and verdict[1].startswith("not self-adjoint, hermiticity defect ")
    elif kind == "scaled_above_one":
        # the same arithmetic as random_operator's norms, to the last bit
        assert verdict == (0, f"not a contraction, norm {format(gram_norm(a), '.12g')} > 1")
        assert gram_norm(a) == pytest.approx(svd_norm(a), rel=1e-10, abs=1e-12)
    else:
        assert verdict is None
    return verdict


def first_failure(kinds, stack):
    """The (index, reason) validate owes a stack: the first single-matrix failure."""
    verdicts = [single_verdict(kind, a) for kind, a in zip(kinds, stack)]
    return next(((k, v[1]) for k, v in enumerate(verdicts) if v is not None), None)


class TestValidateStack:
    @given(operator_stacks())
    @settings(max_examples=150, deadline=None)
    def test_the_first_single_matrix_failure_is_reported(self, case):
        kinds, stack = case
        assert validate(stack) == first_failure(kinds, stack)

    def test_stack_spanning_several_batches(self):
        # 96 x 96 operators go through validate 7 at a time, so 21 make three batches
        rng = np.random.default_rng(5)
        kinds = ["hermitian", "involution", "hermitian"] * 7
        stack = np.stack([draw_operator(rng, kind, 96) for kind in kinds])
        assert validate(stack) is None
        # a failure in the third batch reports its global index
        kinds[17] = "scaled_above_one"
        stack[17] = draw_operator(rng, "scaled_above_one", 96)
        assert validate(stack) == first_failure(kinds, stack)
        assert validate(stack)[0] == 17
        # an earlier failure in another batch wins over it
        kinds[9] = "non_hermitian"
        stack[9] = draw_operator(rng, "non_hermitian", 96)
        assert validate(stack) == first_failure(kinds, stack)
        assert validate(stack)[0] == 9

    @pytest.mark.parametrize("count, dim", [(1, 3), (12, 3), (12, 96), (7, 256), (5000, 4)])
    def test_batches_cover_the_stack_in_order_within_the_budget(self, count, dim, monkeypatch):
        seen = []
        first_failure_of = families._first_failure

        def recording(part):
            seen.append(part)
            return first_failure_of(part)

        monkeypatch.setattr(families, "_first_failure", recording)
        # matrix k is the contraction (k / count) I, so every batch is visited
        stack = (np.arange(count) / count)[:, None, None] * np.eye(dim, dtype=complex)
        assert validate(stack) is None
        # the batches in call order spell the stack
        visited = np.concatenate([part[:, 0, 0].real for part in seen])
        assert visited.tolist() == (np.arange(count) / count).tolist()
        assert all(part.size <= BATCH_ENTRIES or len(part) == 1 for part in seen)
        assert len(seen) == -(-count // max(1, BATCH_ENTRIES // dim ** 2))
        # a failure in the first batch ends the pass there
        seen.clear()
        stack[0] = 2 * np.eye(dim)
        assert validate(stack) == (0, "not a contraction, norm 2 > 1")
        assert len(seen) == 1


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
            assert validate(random_operator(kind, 3, [7])) is None

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
