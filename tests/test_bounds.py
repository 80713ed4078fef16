import dataclasses
import itertools
import math
import mmap
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_phi_breakdown,
    chsh_square_residual,
    dense_kron_sum,
    involution_defect,
    kron_sum_eigenvalue_bound,
    loop_domination,
    sequential_edge_sum,
    sequential_pair_sum,
    svd_norm,
    two_term_residual,
)
from tensorbound import (
    DominationError,
    DominationReport,
    TensorSumInstance,
    build_certificate_report,
    chain_graph,
    check_domination,
    clifford_generators,
    complete_graph,
    exact_reference,
    extreme_spectrum,
    pauli,
    phi_table,
    random_operator,
)
from tensorbound import bounds, linalg
from tensorbound.bounds import DOM_TOL, build_report, exceeded_bounds
from tensorbound.demos import build_demo
from tensorbound.families import CONTRACTION_TOL, HERM_TOL_FACTOR
from tensorbound.graphs import InteractionGraph, random_graph_min_degree_one

SX = pauli("x")
SY = pauli("y")
SZ = pauli("z")

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_exports_resolve_and_are_sorted():
    import tensorbound

    assert [n for n in tensorbound.__all__ if not hasattr(tensorbound, n)] == []
    assert tensorbound.__all__ == sorted(set(tensorbound.__all__))
    assert len(tensorbound.__all__) == 36
    # library-only names removed from the public API; tests compute the identities in oracles.py.
    # Every refusal is a ValueError, and validate and spectral_norm take checked stacks only.
    removed = (
        "ContractionCertificate",
        "DimensionCapError",
        "InstanceValidationError",
        "IsolatedVertexError",
        "TwoTermSharpness",
        "anticommutator",
        "chsh_identity_residual",
        "commutator",
        "cycle_graph",
        "require_domination",
        "spectral_norm",
        "two_term_sharpness",
        "validate",
    )
    assert [n for n in removed if hasattr(tensorbound, n)] == []


def chsh_instance():
    b0 = (SZ + SX) / math.sqrt(2)
    b1 = (SZ - SX) / math.sqrt(2)
    return TensorSumInstance([SZ, SZ, SX, SX], [b0, b1, b0, -b1])


def counterexample_instance():
    zero = np.zeros((2, 2), dtype=complex)
    ops = [SZ, zero, SX]
    return TensorSumInstance(ops, ops), InteractionGraph(3, [(1, 2)])


def random_instance(seed, m=None, max_dim=4):
    rng = np.random.default_rng(seed)
    if m is None:
        m = int(rng.integers(2, 6))
    dim_h = int(rng.integers(1, max_dim + 1))
    dim_k = int(rng.integers(1, max_dim + 1))
    kinds = ("contraction", "unitary_involution")

    def draw(dim):
        kind = kinds[int(rng.integers(0, 2))]
        return random_operator(kind, dim, [int(rng.integers(0, 2**63))])[0]

    weights = rng.uniform(-2, 2, m)
    return TensorSumInstance(
        [draw(dim_h) for _ in range(m)], [draw(dim_k) for _ in range(m)], weights
    )


def dense_instance(seed, dim_h, dim_k, weights):
    """Random Hermitian contractions (scaled by their Frobenius norm), one
    x and one y operator per weight."""
    rng = np.random.default_rng(seed)

    def draw(dim):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = a + a.conj().T
        return h / np.linalg.norm(h)

    return TensorSumInstance(
        [draw(dim_h) for _ in weights], [draw(dim_k) for _ in weights], weights
    )


def dyadic_instance(seed, dim_h, dim_k, weights, skew=0.0):
    """Hermitian contractions a + a*, with the entries of a in {-1, 0, 1} +
    i {-1, 0, 1}, divided by the power of two at or above their Frobenius
    norm; with ``skew``, every x_i also carries skew * i on its diagonal.
    With weights in quarters, skew = 2^-36 and x dimensions up to 9, every
    product and partial sum of B's assembly is exact in binary64, so B is
    the same bitwise in any summation order."""
    rng = np.random.default_rng(seed)

    def draw(dim):
        a = rng.integers(-1, 2, (dim, dim)) + 1j * rng.integers(-1, 2, (dim, dim))
        h = a + a.conj().T
        return h / 2.0 ** math.ceil(math.log2(max(1.0, np.linalg.norm(h))))

    x = [draw(dim_h) + skew * 1j * np.eye(dim_h) for _ in weights]
    return TensorSumInstance(x, [draw(dim_k) for _ in weights], weights)


class TestInstanceValidation:
    def test_rejects_non_contraction_naming_operator(self):
        with pytest.raises(ValueError, match=r"x operator 2 of 2.*contraction"):
            TensorSumInstance([SZ, 2 * SX], [SZ, SX])

    def test_rejects_non_hermitian_naming_operator(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match=r"y operator 1 of 1.*self-adjoint"):
            TensorSumInstance([SZ], [bad])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equally many"):
            TensorSumInstance([SZ, SX], [SZ])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="dimension"):
            TensorSumInstance([SZ, np.eye(3, dtype=complex) * 0.5], [SZ, SZ])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="weights"):
            TensorSumInstance([SZ], [SZ], [1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            TensorSumInstance([SZ], [SZ], [np.inf])

    @pytest.mark.parametrize("weights", [[1e200, 1.0], [1e154, 1e154], [-1.5e308, 1e308]])
    def test_rejects_weights_whose_bounds_overflow(self, weights):
        with pytest.raises(ValueError, match=r"weights too large: 4 m \(sum \|c_i\|\)\^2"):
            TensorSumInstance([SZ, SX], [SZ, SX], weights)

    def test_accepts_the_largest_weights_whose_bounds_are_finite(self):
        c = math.sqrt(np.finfo(float).max / 8) / 2  # 4 m (2c)^2 = max / 2 at m = 2
        report = build_report(TensorSumInstance([SZ, SX], [SZ, SX], [c, c]))
        assert math.isfinite(report.complete_bound)
        assert math.isfinite(report.exact_norm_squared)

    def test_operators_may_come_from_any_iterable(self):
        inst = TensorSumInstance(iter([SZ, SX]), (b for b in [SZ, SX]))
        assert np.array_equal(inst.x, np.stack([SZ, SX]))
        assert np.array_equal(inst.y, inst.x)

    @pytest.mark.parametrize("kind", ["contraction", "unitary_involution"])
    def test_every_stored_stack_equals_its_adjoint(self, kind):
        # a side that already equals its adjoint keeps its bytes; any other
        # (unitary involutions at some d) is stored as its Hermitian part
        for d in range(1, 9):
            ops = random_operator(kind, d, range(6))
            inst = TensorSumInstance(ops[:3], ops[3:])
            for raw, stored in ((ops[:3], inst.x), (ops[3:], inst.y)):
                adjoint = np.swapaxes(raw.conj(), -1, -2)
                assert np.array_equal(stored, np.swapaxes(stored.conj(), -1, -2))
                assert np.array_equal(stored, (raw + adjoint) / 2)
                if np.array_equal(raw, adjoint):
                    assert stored.tobytes() == raw.tobytes()

    def test_hermitian_entries_keep_their_signed_zeros(self):
        # -Z has -0.0 in every imaginary part, which (a + a*)/2 makes +0.0 on
        # the diagonal; a side with a defect elsewhere keeps -Z's entries too
        near = SZ + 4.5e-11j * SX
        inst = TensorSumInstance([-SZ, SY], [-SZ, near])
        assert inst.x.tobytes() == np.stack([-SZ, SY]).tobytes()
        assert inst.y[0].tobytes() == (-SZ).tobytes()
        assert np.array_equal(inst.y[1], SZ)

    def test_default_weights_are_ones(self):
        inst = TensorSumInstance([SZ, SX], [SZ, SX])
        assert np.array_equal(inst.weights, [1.0, 1.0])
        assert inst.m == 2
        assert inst.dim_h == inst.dim_k == 2

    def test_large_weights_allowed(self):
        inst = TensorSumInstance([SZ], [SZ], [-3.0])
        summary = exact_reference(inst)
        assert summary.spectral_norm == pytest.approx(3.0, abs=1e-12)
        assert summary.lambda_max == pytest.approx(3.0, abs=1e-12)

    def test_zero_weights_contribute_nothing(self):
        gens = clifford_generators(3)
        inst = TensorSumInstance(gens, gens, [1.0, 0.0, 1.0])
        reduced = TensorSumInstance([gens[0], gens[2]], [gens[0], gens[2]])
        assert build_report(inst).complete_bound == build_report(reduced).complete_bound
        assert exact_reference(inst).spectral_norm == pytest.approx(
            exact_reference(reduced).spectral_norm, abs=1e-12
        )
        # a zero-weight vertex still sits in the graph; weighted domination
        # holds automatically for its pairs (0 <= rhs)
        graph = InteractionGraph(3, [(1, 3), (2, 3)])
        report = check_domination(inst, graph, weighted=True)
        assert report.satisfied
        (check,) = report.checks
        assert check.pair == (1, 2)
        assert check.lhs == 0.0


NON_HERMITIAN = np.array([[0, 1], [0, 0]], dtype=complex)
NAN = np.full((2, 2), np.nan, dtype=complex)


def validation_message(x, y):
    with pytest.raises(ValueError) as err:
        TensorSumInstance(x, y)
    return str(err.value)


class TestValidationMessages:
    """Which operator a stacked validation names, and the exact text."""

    def test_contraction_defect_in_x(self):
        assert validation_message([SZ, SX, 2 * SZ], [SZ, SX, SY]) == (
            "x operator 3 of 3: not a contraction, norm 2 > 1"
        )

    def test_hermiticity_defect_in_y(self):
        # ||N - N*||_F = sqrt(2)
        assert validation_message([SZ, SX, SY], [SZ, NON_HERMITIAN, SY]) == (
            "y operator 2 of 3: not self-adjoint, hermiticity defect 1.414e+00"
        )

    def test_two_defects_in_one_operator_name_hermiticity(self):
        # 3 N has norm 3 and defect 3 sqrt(2)
        assert validation_message([SZ, 3 * NON_HERMITIAN], [SZ, SX]) == (
            "x operator 2 of 2: not self-adjoint, hermiticity defect 4.243e+00"
        )

    def test_first_failing_operator_and_x_before_y(self):
        assert validation_message([SZ, 2 * SX, NON_HERMITIAN], [NON_HERMITIAN, SX, SZ]) == (
            "x operator 2 of 3: not a contraction, norm 2 > 1"
        )

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_entries_whose_gram_product_overflows(self, where):
        big = SZ.copy()
        big[where] = 1e200
        assert validation_message([SZ, big], [SZ, SX]) == (
            "x operator 2 of 2: entries too large: ||a||_F^2 or ||a - a*||_F^2 overflows"
        )

    def test_entries_whose_hermiticity_defect_overflows(self):
        # ||a||_F^2 = 7.2e307 is finite, ||a - a*||_F^2 = 2.88e308 is not
        a = np.array([[0, 6e153], [-6e153, 0]], dtype=complex)
        assert validation_message([SZ, SX], [SZ, a]) == (
            "y operator 2 of 2: entries too large: ||a||_F^2 or ||a - a*||_F^2 overflows"
        )

    def test_overflow_is_one_more_failure_in_order(self):
        big = np.full((2, 2), 1e200, dtype=complex)
        assert validation_message([SZ, 2 * SX, big], [big, SX, SZ]) == (
            "x operator 2 of 3: not a contraction, norm 2 > 1"
        )
        assert validation_message([SZ, SX, big], [NON_HERMITIAN, SX, SZ]) == (
            "x operator 3 of 3: entries too large: ||a||_F^2 or ||a - a*||_F^2 overflows"
        )

    def test_defect_before_a_dimension_mismatch_is_reported_first(self):
        half = 0.5 * np.eye(3, dtype=complex)
        assert validation_message([SZ, NON_HERMITIAN, half], [SZ, SZ, SZ]) == (
            "x operator 2 of 3: not self-adjoint, hermiticity defect 1.414e+00"
        )
        assert validation_message([SZ, half, NON_HERMITIAN], [SZ, SZ, SZ]) == (
            "x operator 2 of 3: dimension 3 differs from the first x operator's dimension 2"
        )
        assert validation_message([SZ, SX], [SZ, half]) == (
            "y operator 2 of 2: dimension 3 differs from the first y operator's dimension 2"
        )


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: bounds.as_weights([]), "weights must be a nonempty vector, got shape (0,)"),
        (lambda: linalg.as_operator(np.zeros((0, 0))), "operator dimension must be at least 1"),
        (lambda: InteractionGraph(0), "vertex count m must be positive"),
        (
            lambda: random_graph_min_degree_one(1, np.random.default_rng(0)),
            "need at least 2 vertices for min degree 1",
        ),
        (lambda: build_demo("star", 1), "demo 'star' needs m >= 2, got 1"),
        (
            lambda: build_demo("nope"),
            "unknown demo 'nope', expected one of ('chsh', 'heisenberg', 'clifford', "
            "'two-spin', 'counterexample', 'star', 'chain')",
        ),
        # count, then weights, then x, then y; on each side shape and finiteness first
        (
            lambda: TensorSumInstance([NAN], [SZ, SZ]),
            "need equally many x and y operators, got 1 and 2",
        ),
        (lambda: TensorSumInstance([NAN], [SZ], [np.inf]), "weights must be finite reals"),
        # weights numpy cannot make floats: a complex, a string, ragged rows
        (lambda: TensorSumInstance([SZ, SZ], [SZ, SZ], [1j, 1]), "weights must be finite reals"),
        (lambda: TensorSumInstance([SZ, SZ], [SZ, SZ], ["a", 1]), "weights must be finite reals"),
        (
            lambda: TensorSumInstance([SZ, SZ], [SZ, SZ], [[1], [2, 3]]),
            "weights must be finite reals",
        ),
        (lambda: build_certificate_report(2.0, weights=[1j, 1]), "weights must be finite reals"),
        # a complex array is refused before numpy could cast it to its real part
        (
            lambda: TensorSumInstance([SZ, SZ], [SZ, SZ], np.array([1j, 1])),
            "weights must be finite reals",
        ),
        (
            lambda: TensorSumInstance([SZ, SZ], [SZ, SZ], np.array([1 + 0j, 1])),
            "weights must be finite reals",
        ),
        (
            lambda: build_certificate_report(2.0, weights=np.array([1j, 1])),
            "weights must be finite reals",
        ),
        (
            lambda: build_certificate_report(2.0, weights=np.array([1 + 0j, 1])),
            "weights must be finite reals",
        ),
        (
            lambda: TensorSumInstance([SZ], [NAN]),
            "y operator 1 of 1: operator entries must be finite (no NaN/Inf)",
        ),
        (
            lambda: TensorSumInstance([SZ, np.ones((2, 3))], [SZ, SZ]),
            "x operator 2 of 2: operator must be a square matrix, got shape (2, 3)",
        ),
        (
            lambda: TensorSumInstance([np.zeros((0, 0))], [SZ]),
            "x operator 1 of 1: operator dimension must be at least 1",
        ),
        (
            lambda: TensorSumInstance([SZ], [[[1, 0], [0]]]),
            "y operator 1 of 1: operator must be a rectangular array of numbers",
        ),
        (
            lambda: TensorSumInstance([[[object()]]], [SZ]),
            "x operator 1 of 1: operator must be a rectangular array of numbers",
        ),
        (
            lambda: TensorSumInstance([[[10**400]]], [SZ]),
            "x operator 1 of 1: operator entries must be finite (no NaN/Inf)",
        ),
        (
            lambda: TensorSumInstance([SZ, NON_HERMITIAN], [NAN, SZ]),
            "x operator 2 of 2: not self-adjoint, hermiticity defect 1.414e+00",
        ),
        (
            lambda: TensorSumInstance([SZ, NON_HERMITIAN, NAN], [SZ, SZ, SZ]),
            "x operator 3 of 3: operator entries must be finite (no NaN/Inf)",
        ),
    ],
    ids=[
        "empty-weights", "empty-operator", "no-vertex", "one-vertex", "small-demo", "no-demo",
        "count-first", "weights-before-operators", "complex-weight", "string-weight",
        "ragged-weights", "complex-certificate-weight", "complex-weight-array",
        "real-complex-weight-array", "complex-certificate-weight-array",
        "real-complex-certificate-weight-array", "nan-in-y", "non-square-x",
        "zero-dimension", "ragged", "non-numeric", "integer-overflow", "x-defect-before-y-nan",
        "nan-before-an-earlier-defect",
    ],
)
def test_library_refusals_pinned(refused, message):
    with pytest.raises(ValueError) as err:
        refused()
    assert str(err.value) == message


class TestValidationPassCount:
    """Validation is one batched pass per side, whatever m is, while a side
    fits one linalg batch (2^16 complex entries): a loop over the operators
    would multiply these counts by m."""

    @pytest.mark.parametrize("m", [1, 3, 12])
    def test_two_validate_and_two_eigvalsh_calls(self, m, monkeypatch):
        rng = np.random.default_rng(m)
        x = random_operator("contraction", 3, [int(s) for s in rng.integers(0, 2**32, m)])
        y = random_operator("unitary_involution", 2, [int(s) for s in rng.integers(0, 2**32, m)])
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(bounds, "validate", counted("validate", bounds.validate))
        TensorSumInstance(x, y)
        assert calls == {"validate": 2, "eigvalsh": 2}

    @pytest.mark.parametrize("m", [1, 3, 12])
    def test_one_as_operator_call_per_side(self, m, monkeypatch):
        # the whole side is converted and scanned at once; perfbench counts these calls
        rng = np.random.default_rng(m)
        x = random_operator("contraction", 3, [int(s) for s in rng.integers(0, 2**32, m)])
        y = random_operator("contraction", 2, [int(s) for s in rng.integers(0, 2**32, m)])
        y = [op.tolist() for op in y]
        calls = []

        def counted(a, **kwargs):
            calls.append(kwargs)
            return linalg.as_operator(a, **kwargs)

        monkeypatch.setattr(bounds, "as_operator", counted)
        TensorSumInstance(list(x), y)
        assert calls == [{"stack": True}, {"stack": True}]

    def test_entries_are_scanned_for_nan_and_inf_once(self, monkeypatch):
        # linalg.as_operator is the one finiteness scan: one per side, not
        # one per operator, none in validate, and none in phi_table, which
        # takes checked stacks
        calls = Counter()
        isfinite = np.isfinite

        def counted(*args, **kwargs):
            calls["isfinite"] += 1
            return isfinite(*args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)
        inst = TensorSumInstance([SX, SY, SZ], [SZ, SX, SY])
        assert calls["isfinite"] == 2
        calls.clear()
        phi_table(inst)
        assert calls["isfinite"] == 0


SIDE_KINDS = (
    "hermitian", "real", "nested-list", "near-hermitian", "involution", "non-hermitian",
    "non-contraction", "too-large", "nan", "non-square", "mismatched-dimension",
)


def draw_side_operator(rng, kind, dim):
    """One operator of a side of dimension ``dim``, of the given kind."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + g.conj().T) / 2
    h *= rng.uniform(0.0, 1.0) / max(svd_norm(h), 1e-300)
    if kind == "real":
        return h.real.copy()
    if kind == "nested-list":
        return h.tolist()
    if kind == "near-hermitian":
        return h + 1e-12 * g
    if kind == "involution":
        q, _ = np.linalg.qr(g)
        return (q * rng.choice([-1.0, 1.0], dim)) @ q.conj().T
    if kind == "non-hermitian":
        return g
    if kind == "non-contraction":
        return (g + g.conj().T) * rng.uniform(1.01, 3.0) / svd_norm(g + g.conj().T)
    if kind == "too-large":
        return np.full((dim, dim), 1e200, dtype=complex)
    if kind == "nan":
        h[rng.integers(dim), rng.integers(dim)] = np.nan
    elif kind == "non-square":
        return np.ones((dim, dim + 1))
    elif kind == "mismatched-dimension":
        return 0.5 * np.eye(dim + 1)
    return h


@st.composite
def operator_sides(draw):
    """Equally long x and y sides of up to 5 operators each, of mixed kinds."""
    m = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(seeds))
    sides = []
    for _ in range(2):
        dim = draw(st.integers(min_value=1, max_value=4))
        # mostly well-formed operators, so a failure can come late in a side
        kinds = draw(
            st.lists(
                st.sampled_from(SIDE_KINDS[:3] * 6 + SIDE_KINDS), min_size=m, max_size=m
            )
        )
        sides.append([draw_side_operator(rng, kind, dim) for kind in kinds])
    return sides


def instance_outcome(x, y):
    """The stored stacks' bytes, or the refusal's message."""
    try:
        inst = TensorSumInstance(x, y)
    except ValueError as err:
        return str(err)
    return inst.x.dtype, inst.x.shape, inst.x.tobytes(), inst.y.shape, inst.y.tobytes()


class TestOnePassSideCheck:
    """A side is converted and scanned by one as_operator call; the per-operator
    pass, which runs only when that call fails, is the reference for both
    what is stored and how a refusal is worded."""

    @given(operator_sides())
    @settings(max_examples=300, deadline=None)
    def test_same_stacks_and_messages_as_the_per_operator_pass(self, sides):
        x, y = sides

        def one_operator_at_a_time(a, *, stack=False):
            if stack:
                raise ValueError("refused to force the per-operator pass")
            return linalg.as_operator(a)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "as_operator", one_operator_at_a_time)
            expected = instance_outcome(list(x), list(y))
        assert instance_outcome(list(x), list(y)) == expected

    def test_stored_stacks_are_fresh_and_read_only(self):
        x = [np.array(SZ), np.array(SX)]
        inst = TensorSumInstance(x, x)
        assert not inst.x.flags.writeable and not inst.y.flags.writeable
        assert x[0].flags.writeable and not np.shares_memory(inst.x, x[0])

    @pytest.mark.parametrize(
        "side, k, shape",
        [
            ([SZ, np.zeros((1, 2, 2))], 2, (1, 2, 2)),
            ([SZ, np.zeros(2)], 2, (2,)),
            ([[1, 0], [0, 1]], 1, (2,)),
            ([SZ, 0.5], 2, ()),
        ],
    )
    def test_an_operator_not_two_dimensional_is_named(self, side, k, shape):
        # no side here converts to an (m, d, d) stack, and one operator alone names the fault
        assert validation_message(side, [SZ] * len(side)) == (
            f"x operator {k} of 2: operator must be a square matrix, got shape {shape}"
        )


class TestPhiTable:
    def test_pauli_pair(self):
        # Z and X anticommute: ||[Z,X]|| = 2 and ||{Z,X}|| = 0, so phi = (2*2 + 0)/2
        assert [svd_norm(SZ @ SX - SX @ SZ), svd_norm(SZ @ SX + SX @ SZ)] == [2.0, 0.0]
        inst = TensorSumInstance([SZ, SX], [SZ, SX])
        assert phi_table(inst).values[0, 1] == 2.0

    def test_identity_pair(self):
        eye = np.eye(2, dtype=complex)
        inst = TensorSumInstance([eye, eye], [eye, eye])
        assert phi_table(inst).values[0, 1] == 2.0  # (0 + 2*2)/2

    def test_zero_operator_pair(self):
        zero = np.zeros((2, 2), dtype=complex)
        inst = TensorSumInstance([SZ, zero], [SZ, zero])
        assert phi_table(inst).values[0, 1] == 0.0

    def test_symmetry_and_recombination(self):
        inst = random_instance(99, m=4)
        table = phi_table(inst)
        assert table.m == 4
        assert np.all(np.diag(table.values) == 0.0)

        def norms(ops, i, j):
            p, q = ops[i] @ ops[j], ops[j] @ ops[i]
            return svd_norm(p - q), svd_norm(p + q)

        for i, j in itertools.combinations(range(4), 2):
            assert table.values[i, j] == table.values[j, i]
            (cx, ax), (cy, ay) = norms(inst.x, i, j), norms(inst.y, i, j)
            assert abs(table.values[i, j] - 0.5 * (cx * cy + ax * ay)) <= 1e-12

    def test_matches_brute_force(self):
        inst = random_instance(123, m=4)
        expected = brute_phi_breakdown(inst.x, inst.y)
        table = phi_table(inst)
        for (i, j), phi in expected.items():
            assert table.values[i, j] == pytest.approx(phi, rel=1e-10, abs=1e-12)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_one_product_matches_the_two_product_gram_formula(self, seed):
        # on exactly Hermitian operators, the norms of i(P - P*) and P + P*
        # from P = a_i a_j equal those of ab - ba and ab + ba taken as
        # sqrt(lambda_max(h* h)), the formula phi_table used before
        inst = random_instance(seed, m=4, max_dim=6)
        herm = TensorSumInstance(
            [(a + a.conj().T) / 2 for a in inst.x], [(b + b.conj().T) / 2 for b in inst.y]
        )

        def gram_norm(h):
            return math.sqrt(max(np.linalg.eigvalsh(h.conj().T @ h)[-1], 0.0))

        def norms(ops, i, j):
            p, q = ops[i] @ ops[j], ops[j] @ ops[i]
            return gram_norm(p - q), gram_norm(p + q)

        table = phi_table(herm)
        for i, j in itertools.combinations(range(4), 2):
            (cx, ax), (cy, ay) = norms(herm.x, i, j), norms(herm.y, i, j)
            assert table.values[i, j] == pytest.approx(0.5 * (cx * cy + ax * ay), rel=1e-14)

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_operators_at_the_hermiticity_edge(self, seed):
        # Operators whose defect ||a - a*||_F sits just under HERM_TOL_FACTOR *
        # max(1, ||a||_F) are accepted and stored as their Hermitian parts
        # (a + a*)/2, equal to their adjoints entry for entry, so phi is that
        # of the stored operators to rounding, with no allowance for a defect.
        rng = np.random.default_rng(seed)
        m, dim = 4, 5

        def at_edge():
            h = random_operator("contraction", dim, [int(rng.integers(0, 2**63))])[0]
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            skew = (g - g.conj().T) / np.linalg.norm(g - g.conj().T)
            # a - a* = 2 t skew, and ||a||_F >= ||h||_F since skew is orthogonal to h
            t = 0.5 * 0.999 * HERM_TOL_FACTOR * max(1.0, np.linalg.norm(h))
            return h + t * skew

        x, y = np.stack([at_edge() for _ in range(m)]), np.stack([at_edge() for _ in range(m)])
        inst = TensorSumInstance(x, y)
        for raw, stored in ((x, inst.x), (y, inst.y)):
            adjoint = np.swapaxes(raw.conj(), -1, -2)
            for a, a_adj in zip(raw, adjoint):
                delta = np.linalg.norm(a - a_adj)
                assert 0.99 * HERM_TOL_FACTOR * max(1.0, np.linalg.norm(a)) < delta
            assert np.array_equal(stored, np.swapaxes(stored.conj(), -1, -2))
            assert np.array_equal(stored, (raw + adjoint) / 2)

        rounding = 1e-14
        first, second = np.triu_indices(m, k=1)
        for ops in (inst.x, inst.y):
            comm, anti = bounds._pair_norms(ops, first, second)
            for k, (i, j) in enumerate(zip(first, second)):
                a, b = ops[i], ops[j]
                assert abs(comm[k] - svd_norm(a @ b - b @ a)) <= rounding
                assert abs(anti[k] - svd_norm(a @ b + b @ a)) <= rounding
        table = phi_table(inst)
        for (i, j), phi in brute_phi_breakdown(inst.x, inst.y).items():
            assert abs(table.values[i, j] - phi) <= rounding


class TestPairNormBatches:
    """_pair_norms writes i(P - P*) and P + P* of a batch of pairs into one
    stack and takes both norms from one linalg.spectral_norm call."""

    @staticmethod
    def stacks_seen(monkeypatch):
        seen = []

        def recorded(h):
            seen.append(h.shape)
            return linalg.spectral_norm(h)

        monkeypatch.setattr(bounds, "spectral_norm", recorded)
        return seen

    @pytest.mark.parametrize("m, dim_h, dim_k", [(2, 1, 1), (5, 4, 3), (10, 26, 2), (40, 6, 2)])
    def test_one_call_per_side_when_the_pairs_fit_one_batch(self, m, dim_h, dim_k, monkeypatch):
        # 45 pairs of 10 operators fit one batch up to d = 26, 780 pairs of 40 up to d = 6
        rng = np.random.default_rng(m)
        x = random_operator("contraction", dim_h, rng.integers(0, 2**32, m).tolist())
        y = random_operator("contraction", dim_k, rng.integers(0, 2**32, m).tolist())
        inst = TensorSumInstance(x, y)
        seen = self.stacks_seen(monkeypatch)
        phi_table(inst)
        pairs = m * (m - 1) // 2
        assert seen == [(2 * pairs, dim_h, dim_h), (2 * pairs, dim_k, dim_k)]

    def test_a_larger_dimension_takes_a_second_batch(self, monkeypatch):
        x = random_operator("contraction", 27, range(10))
        seen = self.stacks_seen(monkeypatch)
        bounds._pair_norms(x, *np.triu_indices(10, 1))
        assert len(seen) == 2

    def test_batches_give_the_per_pair_norms_bitwise(self, monkeypatch):
        m, d = 12, 96
        ops = random_operator("contraction", d, range(100, 100 + m))
        first, second = np.triu_indices(m, 1)
        seen = self.stacks_seen(monkeypatch)
        comm, anti = bounds._pair_norms(ops, first, second)
        assert len(seen) > 2  # several batches
        assert all(np.prod(shape) <= linalg.BATCH_ENTRIES for shape in seen)
        assert sum(shape[0] for shape in seen) == 2 * len(first)
        for k, (i, j) in enumerate(zip(first, second)):
            p = ops[i] @ ops[j]
            p_adj = p.conj().T
            assert comm[k] == linalg.spectral_norm((1j * (p - p_adj))[None])[0]
            assert anti[k] == linalg.spectral_norm((p + p_adj)[None])[0]

    def test_no_pairs_no_eigensolve(self, monkeypatch):
        seen = self.stacks_seen(monkeypatch)
        comm, anti = bounds._pair_norms(np.stack([SX]), *np.triu_indices(1, 1))
        assert (seen, comm.size, anti.size) == ([], 0, 0)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_upper_mask_orders_pairs_as_triu_indices(self, m):
        mask = bounds._upper(m)
        assert not mask.flags.writeable
        first, second = np.nonzero(mask)
        expected = np.triu_indices(m, 1)
        assert np.array_equal(first, expected[0]) and np.array_equal(second, expected[1])
        values = np.arange(m * m).reshape(m, m)
        assert values[mask].tolist() == values[expected].tolist()
        assert bounds._upper.__wrapped__(m).tolist() == mask.tolist()


class TestCompleteBound:
    def test_clifford_three_is_nine(self):
        gens = clifford_generators(3)
        inst = TensorSumInstance(gens, gens)
        assert build_report(inst).complete_bound == 9.0

    def test_single_term(self):
        inst = TensorSumInstance([SZ], [SZ])
        assert build_report(inst).complete_bound == 1.0

    def test_chsh_is_eight_with_brute_force_pairs(self):
        inst = chsh_instance()
        expected_phi = {
            (0, 1): 0.0,
            (0, 2): 0.0,
            (0, 3): 2.0,
            (1, 2): 2.0,
            (1, 3): 0.0,
            (2, 3): 0.0,
        }
        brute = brute_phi_breakdown(inst.x, inst.y)
        for pair, value in expected_phi.items():
            assert brute[pair] == pytest.approx(value, abs=1e-12)
        assert build_report(inst).complete_bound == pytest.approx(8.0, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_weighted_clifford_equals_sum_abs_squared(self, m):
        gens = clifford_generators(m)
        rng = np.random.default_rng(1000 + m)
        weights = rng.uniform(-2, 2, m)
        inst = TensorSumInstance(gens, gens, weights)
        expected = float(np.sum(np.abs(weights))) ** 2
        assert build_report(inst).complete_bound == pytest.approx(expected, rel=1e-12)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariance(self, seed):
        inst = random_instance(seed, m=4)
        rng = np.random.default_rng(seed + 1)
        perm = rng.permutation(4)
        permuted = TensorSumInstance(
            [inst.x[p] for p in perm],
            [inst.y[p] for p in perm],
            inst.weights[perm],
        )
        assert build_report(permuted).complete_bound == pytest.approx(
            build_report(inst).complete_bound, rel=1e-12
        )

    def test_scaling_covariance_exact_for_powers_of_two(self):
        inst = random_instance(7, m=3)
        base = build_report(inst).complete_bound
        for t in (0.5, 2.0, 4.0):
            scaled = TensorSumInstance(inst.x, inst.y, t * inst.weights)
            assert build_report(scaled).complete_bound == t * t * base

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_scaling_covariance_general(self, seed):
        inst = random_instance(seed, m=3)
        t = float(np.random.default_rng(seed + 2).uniform(0.1, 3.0))
        scaled = TensorSumInstance(inst.x, inst.y, t * inst.weights)
        assert build_report(scaled).complete_bound == pytest.approx(
            t * t * build_report(inst).complete_bound, rel=1e-12
        )

    def test_anticommuting_specialization_drops_anti_terms(self):
        # when every anticommutator norm product is exactly zero the bound
        # collapses to m + (1/2) sum of commutator norm products
        gens = clifford_generators(4)
        inst = TensorSumInstance(gens, gens)
        reference = float(inst.m)
        for i, j in itertools.combinations(range(4), 2):
            p, q = gens[i] @ gens[j], gens[j] @ gens[i]
            anti, comm = svd_norm(p + q), svd_norm(p - q)
            assert anti ** 2 == 0.0
            reference += 0.5 * comm ** 2
        assert build_report(inst).complete_bound == reference


def no_phi(inst):
    raise AssertionError("phi_table called for a graph with no non-edge")


class TestDomination:
    def test_complete_graph_vacuous(self, monkeypatch):
        # no non-edge: satisfied without evaluating phi
        monkeypatch.setattr(bounds, "phi_table", no_phi)
        inst = random_instance(5, m=4)
        for weighted in (True, False):
            report = check_domination(inst, complete_graph(4), weighted=weighted)
            assert report == DominationReport(weighted=weighted, checks=(), violations=())
            assert report.satisfied
        with pytest.raises(ValueError, match="graph has 5 vertices but instance has m=4"):
            check_domination(inst, complete_graph(5))

    def test_counterexample_violation(self):
        inst, graph = counterexample_instance()
        report = check_domination(inst, graph)
        assert not report.satisfied
        assert len(report.violations) == 1
        bad = report.violations[0]
        assert bad.pair == (1, 3)
        assert bad.lhs == 2.0
        assert bad.rhs == 0.0
        assert bad.slack == -2.0
        # slack recorded for the non-violating non-edge too
        assert {c.pair for c in report.checks} == {(1, 3), (2, 3)}

    def test_equal_phi_always_satisfied(self):
        # all phi equal: each side of the comparison averages the same value
        gens = clifford_generators(4)
        inst = TensorSumInstance(gens, gens)
        graph = chain_graph(4)
        report = check_domination(inst, graph)
        assert report.satisfied
        for c in report.checks:
            assert c.lhs == pytest.approx(2.0)
            assert c.rhs == pytest.approx(4.0)

    def test_weighted_flag_changes_comparison(self):
        gens = clifford_generators(3)
        # tiny weight on vertex 3 kills the weighted lhs of non-edge (1,3)
        inst = TensorSumInstance(gens, gens, [1.0, 1.0, 1e-6])
        graph = InteractionGraph(3, [(1, 2), (2, 3)])
        weighted = check_domination(inst, graph, weighted=True)
        unweighted = check_domination(inst, graph, weighted=False)
        assert weighted.weighted and not unweighted.weighted
        (wcheck,) = weighted.checks
        (ucheck,) = unweighted.checks
        assert wcheck.pair == ucheck.pair == (1, 3)
        assert wcheck.lhs == pytest.approx(2e-6)
        assert ucheck.lhs == pytest.approx(2.0)

    def test_graph_instance_size_mismatch(self):
        inst = random_instance(3, m=3)
        with pytest.raises(ValueError, match="vertices"):
            check_domination(inst, complete_graph(4))


def small_weight_instance(t):
    """x = y = [Z, 0, 0, X] with weights t [1, .1, .1, 1] on edges (1,2), (3,4).

    Non-edge (1,4) carries lhs 2 t^2 against rhs 0 at every t."""
    zero = np.zeros((2, 2), dtype=complex)
    ops = [SZ, zero, zero, SX]
    inst = TensorSumInstance(ops, ops, t * np.array([1.0, 0.1, 0.1, 1.0]))
    return inst, InteractionGraph(4, [(1, 2), (3, 4)])


class TestDominationTolerance:
    @pytest.mark.parametrize("t", [1.0, 1e-7])
    def test_small_weights_do_not_hide_a_violation(self, t):
        inst, graph = small_weight_instance(t)
        report = check_domination(inst, graph)
        assert not report.satisfied
        assert [c.pair for c in report.violations] == [(1, 4)]
        assert report.violations[0].lhs == pytest.approx(2 * t * t, rel=1e-12)
        bounds = build_report(inst, graph)
        assert bounds.sparse_bound is None
        # the graph bound would claim sum c^2 = 2.02 t^2 against ||B||^2 = 4 t^2
        assert bounds.exact_norm_squared == pytest.approx(4 * t * t, rel=1e-9)

    @given(seeds, st.integers(min_value=-30, max_value=30))
    @settings(max_examples=40, deadline=None)
    @example(seed=3, k=-30)
    @example(seed=3, k=30)
    def test_violations_invariant_under_power_of_two_scaling(self, seed, k):
        inst = random_instance(seed, m=5)
        graph = random_graph_min_degree_one(5, np.random.default_rng(seed))
        scaled = TensorSumInstance(inst.x, inst.y, 2.0 ** k * inst.weights)
        base = check_domination(inst, graph)
        after = check_domination(scaled, graph)
        assert [c.pair for c in after.violations] == [c.pair for c in base.violations]
        for c, d in zip(base.checks, after.checks):
            assert d.lhs == 4.0 ** k * c.lhs and d.rhs == 4.0 ** k * c.rhs


def _graph_cases():
    """(instance, graph, weighted) cases covering random graphs, an
    isolated vertex, zero weights and the unweighted mode."""
    cases = []
    for seed in range(6):
        inst = random_instance(200 + seed, m=6)
        graph = random_graph_min_degree_one(6, np.random.default_rng(seed))
        cases.append(pytest.param(inst, graph, True, id=f"random-{seed}"))
    inst = random_instance(300, m=6)
    graph = InteractionGraph(6, [(1, 2), (2, 3), (4, 5)])
    cases.append(pytest.param(inst, graph, True, id="isolated-vertex"))
    base = random_instance(301, m=5)
    zeroed = TensorSumInstance(base.x, base.y, base.weights * [1.0, 0.0, 1.0, 0.0, 1.0])
    graph = InteractionGraph(5, [(1, 2), (2, 4), (3, 5)])
    cases.append(pytest.param(zeroed, graph, True, id="zero-weights"))
    for seed in range(2):
        inst = random_instance(400 + seed, m=6)
        graph = random_graph_min_degree_one(6, np.random.default_rng(50 + seed))
        cases.append(pytest.param(inst, graph, False, id=f"unweighted-{seed}"))
    return cases


class TestArrayCoreMatchesLoops:
    """The array forms of the weighted sums and of edge domination against
    one-pair-at-a-time loops on phi from SVD norms."""

    @pytest.mark.parametrize("inst,graph,weighted", _graph_cases())
    def test_against_loops(self, inst, graph, weighted):
        brute = brute_phi_breakdown(inst.x, inst.y)
        table = phi_table(inst)
        close = dict(rel=1e-12, abs=1e-15)
        bounds_report = build_report(inst, graph)
        assert bounds_report.total_phi_sum == pytest.approx(
            sequential_pair_sum(brute, inst.weights), **close
        )
        assert bounds_report.edge_phi_sum == pytest.approx(
            sequential_edge_sum(brute, inst.weights, graph.edges), **close
        )
        if bounds_report.sparse_bound is not None:
            assert bounds_report.sparse_bound == (
                bounds_report.sum_c_squared
                + bounds_report.graph_constant * bounds_report.edge_phi_sum
            )
        expected = loop_domination(brute, inst.weights, inst.m, graph.edges, weighted, DOM_TOL)
        report = check_domination(inst, graph, weighted=weighted, phi=table)
        assert [c.pair for c in report.checks] == sorted(expected)
        for c in report.checks:
            lhs, rhs, _ = expected[c.pair]
            assert c.lhs == pytest.approx(lhs, **close)
            assert c.rhs == pytest.approx(rhs, **close)
        assert {c.pair for c in report.violations} == {p for p, v in expected.items() if v[2]}


class TestSparseBound:
    def test_complete_graph_reduces_to_complete_bound(self):
        inst = random_instance(11, m=4)
        report = build_report(inst, complete_graph(4))
        assert report.sparse_bound == pytest.approx(report.complete_bound, rel=1e-12)

    def test_chain_formula(self):
        gens = clifford_generators(4)
        inst = TensorSumInstance(gens, gens)
        graph = chain_graph(4)
        table = phi_table(inst)
        expected = 4.0 + (2 * 4 - 3) * sum(
            table.values[i - 1, i] for i in range(1, 4)
        )
        report = build_report(inst, graph)
        assert report.sparse_bound == pytest.approx(expected, rel=1e-12)
        assert report.edge_phi_sum == pytest.approx(6.0)

    def test_counterexample_raises_with_report(self):
        inst, graph = counterexample_instance()
        with pytest.raises(DominationError) as excinfo:
            build_certificate_report(2.0, instance=inst, g=graph)
        assert str(excinfo.value) == (
            "edge domination fails at 1 non-edge(s); worst at pair (1, 3): lhs 2 > rhs 0"
        )
        report = excinfo.value.report
        assert not report.satisfied
        assert report.violations[0].pair == (1, 3)
        # the failed edge-only formula would be 3 + C*0 = 3, beaten by the
        # exact norm^2 of 4, so no finite constant can repair it
        assert exact_reference(inst).spectral_norm ** 2 == pytest.approx(4.0, abs=1e-12)


def edge_operator(rng, dim):
    """A random operator at 0.9 of both acceptance limits: spectral norm
    1 + 0.9 CONTRACTION_TOL, and hermiticity defect ||a - a*||_F at 0.9 of
    its tolerance. The skew part is Frobenius-orthogonal to the Hermitian
    part, so it only raises ||a||_F, and moves the norm at second order."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = g + g.conj().T
    h *= (1 + 0.9 * CONTRACTION_TOL) / np.abs(np.linalg.eigvalsh(h)).max()
    k = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    skew = k - k.conj().T  # a - a* = 2 * skew
    tol = HERM_TOL_FACTOR * max(1.0, np.linalg.norm(h))
    return h + skew * (0.9 * tol / np.linalg.norm(2 * skew))


class TestAcceptanceEdges:
    @given(seeds, st.integers(2, 5), st.integers(1, 4), st.integers(1, 4), st.integers(-6, 6))
    @settings(max_examples=100, deadline=None)
    def test_instances_at_the_acceptance_limits_keep_every_bound(self, seed, m, dim_h, dim_k, k):
        rng = np.random.default_rng(seed)
        x = [edge_operator(rng, dim_h) for _ in range(m)]
        y = [edge_operator(rng, dim_k) for _ in range(m)]
        inst = TensorSumInstance(x, y, rng.uniform(-2, 2, m) * 10.0**k)
        report = build_report(inst, random_graph_min_degree_one(m, rng))
        assert report.exact_norm_squared is not None
        assert exceeded_bounds(report, 1e-8) == []


    @pytest.mark.parametrize("seed", range(3))
    def test_tensor_sum_matvec_is_hermitian(self, seed):
        # Lanczos reads B through this matvec, on stored operators that equal
        # their adjoints: <u, B v> = <B u, v> up to rounding, where operators
        # that kept their defects of about 1e-10 would read about 1e-11
        rng = np.random.default_rng(seed)
        m, d = 8, 24
        x = [edge_operator(rng, d) for _ in range(m)]
        y = [edge_operator(rng, d) for _ in range(m)]
        matvec = bounds._tensor_sum_matvec(TensorSumInstance(x, y, rng.uniform(-2, 2, m)))
        for _ in range(3):
            u, v = (rng.normal(size=d * d) + 1j * rng.normal(size=d * d) for _ in range(2))
            u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
            assert abs(np.vdot(u, matvec(v)) - np.vdot(matvec(u), v)) <= 1e-14


class TestExactReference:
    def test_terms_at_the_hermiticity_tolerance_are_accepted(self):
        # Z + 4.5e-11 i X passes validation (defect 1.27e-10 against 1.41e-10)
        # and is stored as its Hermitian part, Z, whose spectrum exact gives
        a = SZ + 4.5e-11j * SX
        inst = TensorSumInstance([a], [a])
        h = (a + a.conj().T) / 2
        assert np.array_equal(h, SZ) and np.array_equal(inst.x, [h]) and np.array_equal(inst.y, [h])
        summary = exact_reference(inst)
        expected = np.linalg.eigvalsh(dense_kron_sum([h], [h], [1.0]))
        assert summary.eigenvalues.tobytes() == expected.tobytes()
        assert summary.eigenvalues.tolist() == [-1.0, -1.0, 1.0, 1.0]

    @staticmethod
    def strips(dim_h, dim_k):
        """The (first, end) x rows of each strip exact_reference writes."""
        rows = max(1, linalg.BATCH_ENTRIES // (dim_k * dim_h * dim_k))
        return [(r, min(r + rows, dim_h)) for r in range(0, dim_h, rows)]

    def test_assembled_matrix_is_the_lower_triangle(self, monkeypatch):
        # one entry; strips of 5 x rows in np.zeros (n = 280), of 2 x rows
        # in np.zeros (n = 300) and in a private map (n = 540), each with a
        # short last strip; skew terms, stored as their Hermitian parts;
        # dyadic entries, so every sum is exact in any order
        seen = []
        monkeypatch.setattr(
            bounds, "hermitian_eig", lambda b: seen.append((b.copy(), not b.flags.owndata))
        )
        weights = np.array([0.75, -1.25, 0.5])
        for dim_h, dim_k, mapped in [(1, 1, False), (7, 40, False), (3, 100, False), (9, 60, True)]:
            inst = dyadic_instance(dim_h + dim_k, dim_h, dim_k, weights, skew=2.0**-36)
            exact_reference(inst)
            b, in_map = seen.pop()
            assert in_map == (mapped and hasattr(mmap, "MAP_PRIVATE"))
            full = dense_kron_sum(inst.x, inst.y, weights)
            assert not np.diag(full).imag.any()  # the skew went with the defect
            assert np.tril(b).tobytes() == np.tril(full).tobytes()
            for r, e in self.strips(dim_h, dim_k):
                block = b[r * dim_k : e * dim_k, r * dim_k : e * dim_k]
                assert np.array_equal(block, block.conj().T)
                assert not b[r * dim_k : e * dim_k, e * dim_k :].any()

    # rounded sums, at the acceptance limits and on random operators: each
    # diagonal block is exactly Hermitian, and nothing above them is written
    @pytest.mark.parametrize(
        "dim_h, dim_k, edge", [(1, 1, True), (2, 3, True), (7, 40, True), (9, 60, True),
                               (13, 40, False), (2, 257, False), (16, 16, False), (6, 7, False)]
    )
    def test_diagonal_blocks_are_hermitian(self, monkeypatch, dim_h, dim_k, edge):
        seen = []
        monkeypatch.setattr(bounds, "hermitian_eig", lambda b: seen.append(b.copy()))
        rng = np.random.default_rng(dim_h * dim_k)
        weights = rng.uniform(-2, 2, 5)
        if edge:
            x = [edge_operator(rng, dim_h) for _ in weights]
            inst = TensorSumInstance(x, [edge_operator(rng, dim_k) for _ in weights], weights)
        else:
            inst = dense_instance(dim_h, dim_h, dim_k, weights)
        exact_reference(inst)
        [b] = seen
        for r, e in self.strips(dim_h, dim_k):
            block = b[r * dim_k : e * dim_k, r * dim_k : e * dim_k]
            assert np.array_equal(block, block.conj().T)
            assert not b[r * dim_k : e * dim_k, e * dim_k :].any()

    def test_operators_are_checked_only_by_the_instance(self, monkeypatch):
        # strips of 5 x rows and of one x row; n = 16 takes the dense path
        weights = np.array([0.6, -0.9])
        strips_of_5, strips_of_1, small = (
            dense_instance(9, dh, dk, weights) for dh, dk in [(7, 40), (2, 257), (4, 4)]
        )

        def refuse(a):
            raise AssertionError("operator checked again")

        monkeypatch.setattr(linalg, "as_operator", refuse)
        monkeypatch.setattr(bounds, "as_operator", refuse)
        exact_reference(strips_of_5)
        exact_reference(strips_of_1)
        assert extreme_spectrum(small).method == "dense"
        assert extreme_spectrum(strips_of_1).method == "lanczos"

    # one entry; strips of 5 and of 2 x rows, each with a short last strip
    @pytest.mark.parametrize("dim_h, dim_k", [(1, 1), (7, 40), (3, 100)])
    def test_eigenvalues_bitwise_equal_with_skew_terms(self, dim_h, dim_k):
        # B's diagonal is complex, so B reaches the complex solver as the
        # full sum does; dyadic entries make the two sums the same bitwise
        weights = np.array([-1.5, 0.25, 1.0])
        inst = dyadic_instance(dim_h * dim_k, dim_h, dim_k, weights, skew=2.0**-36)
        expected = np.linalg.eigvalsh(dense_kron_sum(inst.x, inst.y, weights))
        assert exact_reference(inst).eigenvalues.tobytes() == expected.tobytes()

    # every strip shape above, on random operators, and at the hermiticity
    # tolerance: the one-product sum is the term-by-term sum up to rounding
    @pytest.mark.parametrize(
        "dim_h, dim_k, skew", [(1, 1, True), (7, 40, True), (3, 100, True), (7, 100, False),
                               (13, 40, False), (2, 257, False), (4, 8, False)]
    )
    def test_eigenvalues_within_the_rounding_bound_of_the_full_sum(self, dim_h, dim_k, skew):
        rng = np.random.default_rng(dim_h * dim_k)
        weights = rng.uniform(-2, 2, 4)
        if skew:
            x = [edge_operator(rng, dim_h) for _ in weights]
            y = [edge_operator(rng, dim_k) for _ in weights]
            inst = TensorSumInstance(x, y, weights)
        else:
            inst = dense_instance(dim_h, dim_h, dim_k, weights)
        n = dim_h * dim_k
        expected = np.linalg.eigvalsh(dense_kron_sum(inst.x, inst.y, weights))
        got = exact_reference(inst).eigenvalues
        assert np.abs(got - expected).max() <= kron_sum_eigenvalue_bound(n, weights)

    def test_two_spin_norm(self):
        inst = TensorSumInstance([SZ, SX], [SZ, SX])
        assert exact_reference(inst).spectral_norm == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_clifford_spectrum_is_sign_sums(self, m):
        gens = clifford_generators(m)
        inst = TensorSumInstance(gens, gens)
        summary = exact_reference(inst)
        assert summary.spectral_norm == pytest.approx(float(m), abs=1e-9)
        observed = sorted(summary.eigenvalues)
        dim = gens[0].shape[0] ** 2
        sign_sums = sorted(
            sum(signs) for signs in itertools.product((1, -1), repeat=m)
        )
        # each sign pattern appears with equal multiplicity dim / 2^m
        expected = sorted(
            float(s) for s in sign_sums for _ in range(dim // 2**m)
        )
        assert np.allclose(observed, expected, atol=1e-9)

    def test_dimension_cap_enforced(self):
        inst = TensorSumInstance([SZ], [SZ])
        with pytest.raises(ValueError, match=r"2\*2 = 4 exceeds the cap 2"):
            exact_reference(inst, dim_cap=2)

    # (dim_h, dim_k): strips of one x row (dim_k * n above 2^16); strips of
    # 3 x rows with a short last strip; strips of one x row (dim_k above
    # 256); one strip (n <= 256). Dyadic entries make every sum exact.
    @pytest.mark.parametrize("dim_h, dim_k", [(7, 100), (13, 40), (2, 257), (4, 8)])
    def test_eigenvalues_bitwise_equal_full_kron_sum(self, dim_h, dim_k):
        weights = np.array([0.75, -1.25, 0.0, -0.25])
        inst = dyadic_instance(5, dim_h, dim_k, weights)
        expected = np.linalg.eigvalsh(dense_kron_sum(inst.x, inst.y, weights))
        assert exact_reference(inst).eigenvalues.tobytes() == expected.tobytes()

    # the one strip every sweep trial takes: one kron of the weighted stack
    @pytest.mark.parametrize("dim_h, dim_k", [(1, 1), (4, 8), (16, 16), (2, 128)])
    def test_one_strip_up_to_n_256(self, monkeypatch, dim_h, dim_k):
        calls = []

        def counted(a, b):
            calls.append((a.copy(), b))
            return linalg.kron(a, b)

        monkeypatch.setattr(bounds, "kron", counted)
        weights = np.array([0.7, -1.3, 0.25])
        inst = dense_instance(8, dim_h, dim_k, weights)
        exact_reference(inst)
        [(a, b)] = calls
        assert a.tobytes() == (weights[:, None, None] * inst.x).tobytes()
        assert b is inst.y

    def test_peak_memory_is_b_plus_small_tiles(self):
        # strips of 2^16 entries (1 MB): kron's matrix product and its copy
        # in Kronecker order. B (16 MB) is a private map and LAPACK's copy of it is
        # allocated inside numpy's eigvalsh, both outside what tracemalloc
        # sees; B is traced only where it falls back to np.zeros.
        inst = dense_instance(6, 32, 32, np.array([1.0, -0.5, 0.25]))
        n = 32 * 32
        tracemalloc.start()
        try:
            exact_reference(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        traced_b = 0 if hasattr(mmap, "MAP_PRIVATE") else n * n * 16
        assert peak < traced_b + 3 * linalg.BATCH_ENTRIES * 16

    @pytest.mark.skipif(
        not (os.path.exists("/proc/self/statm") and hasattr(mmap, "MAP_PRIVATE")),
        reason="needs /proc/self/statm and private maps",
    )
    def test_resident_b_is_the_written_half(self, monkeypatch):
        # only the pages of B's lower staircase become resident, even once
        # every page is read, as LAPACK's copy reads them: 0.56 of n^2 * 16
        # bytes at n = 2048, against 1.0 for a huge-page np.zeros or a
        # shared map
        held = []
        monkeypatch.setattr(bounds, "hermitian_eig", lambda b: held.append((b, b.sum())))
        inst = dense_instance(4, 32, 64, np.array([1.0, -0.5]))
        n = 32 * 64
        page = os.sysconf("SC_PAGE_SIZE")

        def resident():
            with open("/proc/self/statm") as f:
                return int(f.read().split()[1]) * page

        before = resident()
        exact_reference(inst)
        grown = resident() - before
        assert len(held) == 1
        assert grown <= 0.7 * n * n * 16

    def test_small_or_unmappable_b_takes_no_map(self, monkeypatch):
        # a map costs more than np.zeros at sweep sizes, so every B under
        # 4 MiB (n <= 256 here) takes np.zeros; so does any B where the
        # platform has no private maps
        def refuse(*args, **kwargs):
            raise AssertionError("mapped")

        monkeypatch.setattr(mmap, "mmap", refuse)
        weights = np.array([0.7, -1.3])
        for dim_h, dim_k in [(1, 1), (4, 4), (16, 16), (2, 128)]:
            exact_reference(dense_instance(2, dim_h, dim_k, weights))
        at_threshold = dyadic_instance(2, 16, 32, np.array([0.75, -1.25]))  # n = 512, 4 MiB
        with pytest.raises(AssertionError, match="mapped"):
            exact_reference(at_threshold)
        monkeypatch.delattr(mmap, "MAP_PRIVATE", raising=False)
        expected = np.linalg.eigvalsh(
            dense_kron_sum(at_threshold.x, at_threshold.y, at_threshold.weights)
        )
        assert exact_reference(at_threshold).eigenvalues.tobytes() == expected.tobytes()

    def test_dimension_cap_checked_before_assembly(self):
        inst = dense_instance(7, 32, 32, np.array([1.0, -0.5]))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                exact_reference(inst, dim_cap=1023)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == (
            "tensor product dimension 32*32 = 1024 exceeds the cap 1023; "
            "raise dim_cap to force assembly"
        )
        assert peak < 1024 * 1024 * 16 / 100


class TestDominanceSweep:
    @pytest.mark.parametrize("seed", range(120))
    def test_exact_never_beats_complete_bound(self, seed):
        inst = random_instance(seed)
        exact_sq = exact_reference(inst).spectral_norm ** 2
        assert exact_sq <= build_report(inst).complete_bound + 1e-8

    @pytest.mark.parametrize("seed", range(60))
    def test_exact_never_beats_sparse_bound_when_dominated(self, seed):
        inst = random_instance(seed)
        rng = np.random.default_rng(seed + 10_000)
        from tensorbound import random_graph_min_degree_one

        graph = random_graph_min_degree_one(inst.m, rng)
        report = check_domination(inst, graph)
        if not report.satisfied:
            return
        exact_sq = exact_reference(inst).spectral_norm ** 2
        assert exact_sq <= build_report(inst, graph).sparse_bound + 1e-8

    def test_fixtures_dominate(self):
        fixtures = [
            chsh_instance(),
            TensorSumInstance([SZ, SX], [SZ, SX]),
            TensorSumInstance([SX, SY, SZ], [SX, SY, SZ]),
            counterexample_instance()[0],
        ]
        for inst in fixtures:
            exact_sq = exact_reference(inst).spectral_norm ** 2
            assert exact_sq <= build_report(inst).complete_bound + 1e-8


class TestChshIdentity:
    def fixture_ops(self):
        b0 = (SZ + SX) / math.sqrt(2)
        b1 = (SZ - SX) / math.sqrt(2)
        return SZ, SX, b0, b1

    def test_tsirelson_fixture(self):
        a0, a1, b0, b1 = self.fixture_ops()
        assert max(map(involution_defect, (a0, a1, b0, b1))) <= 1e-9
        assert chsh_square_residual(a0, a1, b0, b1) <= 1e-10
        s = np.kron(a0, b0) + np.kron(a0, b1) + np.kron(a1, b0) - np.kron(a1, b1)
        assert svd_norm(s) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_commuting_case(self):
        assert chsh_square_residual(SZ, SZ, SZ, SZ) <= 1e-10
        s = 2 * np.kron(SZ, SZ)
        assert svd_norm(s) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_involution_quadruples(self, seed):
        rng = np.random.default_rng(seed)

        dim_a = int(rng.integers(2, 5))
        dim_b = int(rng.integers(2, 5))
        ops = [
            *random_operator("unitary_involution", dim_a, [seed * 4 + 0, seed * 4 + 1]),
            *random_operator("unitary_involution", dim_b, [seed * 4 + 2, seed * 4 + 3]),
        ]
        assert max(map(involution_defect, ops)) <= 1e-9
        assert chsh_square_residual(*ops) <= 1e-9


class TestTwoTermSharpness:
    def check(self, x1, x2, y1, y2):
        assert max(map(involution_defect, (x1, x2, y1, y2))) <= 1e-9
        assert svd_norm(x1 @ x2 + x2 @ x1) <= 1e-9 and svd_norm(y1 @ y2 + y2 @ y1) <= 1e-9
        assert svd_norm(np.kron(x1, y1) + np.kron(x2, y2)) == pytest.approx(2.0, abs=1e-10)
        assert two_term_residual(x1, x2, y1, y2) <= 1e-10

    def test_pauli_pair(self):
        self.check(SZ, SX, SZ, SX)
        assert involution_defect(np.kron(SZ @ SX, SZ @ SX)) <= 1e-9

    def test_clifford_pair(self):
        g1, g2 = clifford_generators(2)
        self.check(g1, g2, g1, g2)


class TestBoundReport:
    def test_report_totals_are_consistent(self):
        from tensorbound import build_report

        inst = random_instance(17, m=4)
        table = phi_table(inst)
        report = build_report(inst)
        assert report.baseline_bound == report.complete_bound
        assert report.complete_bound == report.sum_c_squared + report.total_phi_sum
        pairs = itertools.combinations(range(inst.m), 2)
        assert report.total_phi_sum == pytest.approx(
            sequential_pair_sum({p: table.values[p] for p in pairs}, inst.weights), rel=1e-15
        )
        assert report.exact_norm_squared is not None
        assert report.exact_norm_squared <= report.complete_bound + 1e-8

    def test_report_with_graph(self):
        from tensorbound import build_report

        gens = clifford_generators(4)
        inst = TensorSumInstance(gens, gens)
        report = build_report(inst, chain_graph(4))
        assert report.graph_constant == 5.0
        assert report.edge_phi_sum == pytest.approx(6.0)
        assert report.sparse_bound == pytest.approx(4.0 + 5.0 * 6.0)
        assert report.domination.satisfied

    def test_report_skips_exact_above_cap(self):
        from tensorbound import build_report

        inst = TensorSumInstance([SZ, SX], [SZ, SX])
        report = build_report(inst, dim_cap=2)
        assert report.exact_norm_squared is None
        assert report.complete_bound == pytest.approx(4.0)


def scaled_star(scale):
    """The star --m 5 demo (||B||^2 = 25) with every weight times ``scale``."""
    inst, graph = build_demo("star", 5)
    return build_report(TensorSumInstance(inst.x, inst.y, inst.weights * scale), graph)


def with_bounds(report, value):
    return dataclasses.replace(report, complete_bound=value, sparse_bound=value)


class TestExceededBounds:
    """The bound check is relative: exact > b + tol * b."""

    def test_half_bounds_are_caught_at_small_weights(self):
        report = scaled_star(1e-5)
        assert report.exact_norm_squared == pytest.approx(2.5e-9, rel=1e-12)
        assert exceeded_bounds(report, 1e-8) == []
        half = report.exact_norm_squared / 2
        assert exceeded_bounds(with_bounds(report, half), 1e-8) == [
            ("complete bound", half),
            ("sparse bound", half),
        ]

    def test_slack_is_relative_to_the_bound(self):
        report = with_bounds(scaled_star(1.0), 1e6)
        exact = dataclasses.replace(report, exact_norm_squared=1e6 * (1 + 2e-9))
        assert exceeded_bounds(exact, 1e-8) == []
        exact = dataclasses.replace(report, exact_norm_squared=1e6 * (1 + 2e-8))
        assert [name for name, _ in exceeded_bounds(exact, 1e-8)] == [
            "complete bound", "sparse bound",
        ]

    @pytest.mark.parametrize("k", range(-30, 31))
    def test_decision_invariant_under_power_of_two_scaling(self, k):
        report = scaled_star(2.0 ** k)
        exact = report.exact_norm_squared
        assert exceeded_bounds(report, 1e-8) == []
        # bounds below exact by more, and by less, than the relative slack
        for ratio, flagged in ((0.5, True), (1 / (1 + 2e-8), True), (1 / (1 + 5e-9), False)):
            decision = exceeded_bounds(with_bounds(report, exact * ratio), 1e-8)
            assert bool(decision) is flagged, (ratio, decision)
