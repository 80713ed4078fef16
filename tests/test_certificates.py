import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_phi_breakdown,
    count_edges_at_least,
    count_pairs_at_least,
    svd_norm,
)
from tensorbound import (
    DominationError,
    IsolatedVertexError,
    TensorSumInstance,
    build_certificate_report,
    check_domination,
    clifford_generators,
    complete_graph,
    exact_reference,
    pauli,
    star_graph,
)
from tensorbound import certificates
from tensorbound.graphs import InteractionGraph
from test_bounds import chsh_instance, counterexample_instance, random_instance

T_GRID = (0.1, 0.5, 1.0, 2.0)


def scalar_instance(m, a):
    """m unit-weight terms with x_i = y_i = [[a]].

    ||B|| = m a^2 and every phi_ij = 2 a^4, so edge domination holds on
    any graph. With a just below 1 it reaches a large beta while every
    pair stays just below a threshold: a counterexample to counts that
    assume a pair carries at most t.
    """
    op = np.array([[a]])
    return TensorSumInstance([op] * m, [op] * m)


def report_excess(beta, weights):
    return build_certificate_report(beta, weights=weights).excess


def report_count(beta, weights, t, g=None):
    """The ``CountingBound`` of a report with the one threshold ``t``."""
    (bound,) = build_certificate_report(beta, weights=weights, g=g, thresholds=(t,)).counting
    return bound


def report_variant(beta, weights, t_prime, c_max, g=None):
    return build_certificate_report(
        beta, weights=weights, g=g, phi_threshold=t_prime, c_max=c_max
    ).phi_threshold_variant


def oracle_norm(inst):
    """||B|| from the oracle's SVD of the assembled sum."""
    b = sum(c * np.kron(x, y) for c, x, y in zip(inst.weights, inst.x, inst.y))
    return svd_norm(b)


class TestExcess:
    def test_chsh_tsirelson_value(self):
        beta = 2 * math.sqrt(2)
        assert report_excess(beta, [1, 1, 1, 1]) == pytest.approx(4.0, abs=1e-12)

    def test_trivial_when_beta_small(self):
        assert report_excess(1.0, [1, 1]) == 0.0

    def test_negative_beta_certifies_through_square(self):
        assert report_excess(-2 * math.sqrt(2), [1, 1, 1, 1]) == pytest.approx(
            4.0, abs=1e-12
        )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            report_excess(float("nan"), [1, 1])


class TestAggregate:
    def test_chsh(self):
        report = build_certificate_report(2 * math.sqrt(2), weights=[1, 1, 1, 1])
        assert report.excess == pytest.approx(4.0, abs=1e-12)
        assert report.aggregate_all_pairs == pytest.approx(4.0, abs=1e-12)
        assert report.aggregate_edges is None
        assert report.domination is None

    def test_trivial_regime_all_zero(self):
        report = build_certificate_report(1.0, weights=[1, 1])
        assert report.excess == 0.0
        assert report.aggregate_all_pairs == 0.0

    def test_clifford_certificate_is_tight(self):
        m = 4
        gens = clifford_generators(m)
        inst = TensorSumInstance(gens, gens)
        report = build_certificate_report(float(m), instance=inst, g=complete_graph(m))
        assert report.aggregate_all_pairs == pytest.approx(m * (m - 1), abs=1e-9)
        actual = sum(brute_phi_breakdown(inst.x, inst.y).values())
        assert actual == pytest.approx(m * (m - 1), abs=1e-12)
        assert report.domination == "verified"
        # complete graph: edge aggregate coincides with the all-pairs one
        assert report.aggregate_edges == pytest.approx(report.aggregate_all_pairs)

    def test_weights_with_graph_is_asserted_only(self):
        report = build_certificate_report(
            2.0, weights=[1, 1, 1], g=InteractionGraph(3, [(1, 2), (2, 3)])
        )
        assert report.domination == "asserted, not verified"
        assert report.graph_constant == 3.0
        assert report.aggregate_edges == pytest.approx(report.excess / 3.0)

    def test_instance_with_violating_graph_raises(self):
        inst, graph = counterexample_instance()
        with pytest.raises(DominationError):
            build_certificate_report(2.0, instance=inst, g=graph)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertexError):
            build_certificate_report(2.0, weights=[1, 1, 1], g=InteractionGraph(3, [(1, 2)]))

    def test_requires_exactly_one_source(self):
        inst = chsh_instance()
        with pytest.raises(ValueError, match="exactly one"):
            build_certificate_report(1.0, weights=[1], instance=inst)
        with pytest.raises(ValueError, match="exactly one"):
            build_certificate_report(1.0)


class TestCounting:
    def test_clifford_two_generators(self):
        gens = clifford_generators(2)
        inst = TensorSumInstance(gens, gens)
        assert exact_reference(inst).lambda_max == pytest.approx(2.0, abs=1e-12)
        # certify at the exact value: a beta one ulp below 2 certifies 0
        bound = report_count(2.0, inst.weights, 2.0)
        assert bound.pairs == 1
        actual = count_pairs_at_least(
            brute_phi_breakdown(inst.x, inst.y), inst.weights, 2.0
        )
        assert actual == 1

    def test_zero_when_beta_below_weights(self):
        bound = report_count(1.0, [1, 1], 0.5)
        assert bound.pairs == 0
        assert bound.pairs_raw == 0.0

    def test_star_graph_arithmetic(self):
        # an edge excess of exactly t against C(G) = 7 certifies no edge:
        # five scalar terms with a^4 = 0.49 satisfy domination and reach
        # ||B||^2 = 12.25 >= beta^2 = 12, yet every edge carries 0.98 < t
        m = 5
        t = 1.0
        graph = star_graph(m)
        beta = math.sqrt(5.0 + 7.0 * t)
        bound = report_count(beta, np.ones(m), t, graph)
        assert bound.edges_raw == pytest.approx(1.0, abs=1e-12)
        assert bound.edges == 0
        witness = scalar_instance(m, math.sqrt(0.7))
        assert check_domination(witness, graph).satisfied
        assert oracle_norm(witness) >= beta
        brute = brute_phi_breakdown(witness.x, witness.y)
        assert count_edges_at_least(brute, witness.weights, graph.edges, t) == 0

    def test_rejects_graph_of_another_size(self):
        with pytest.raises(ValueError, match="4 vertices but there are 3 weights"):
            report_count(2.0, [1, 1, 1], 1.0, star_graph(4))
        # the aggregates alone would take C(G) from the wrong graph too
        with pytest.raises(ValueError, match="4 vertices but there are 3 weights"):
            build_certificate_report(2.0, weights=[1, 1, 1], g=star_graph(4))

    def test_edge_cap_is_four_products(self):
        # excess 5.5 on the triangle: one edge at its cap 4|c_i c_j| plus
        # two light edges (each < t = 1) can carry it, so one edge is
        # certified; a cap of 2 would certify all three. This pins the
        # stated rule's arithmetic, it is not a witness that needs phi > 2.
        bound = report_count(math.sqrt(8.5), [1, 1, 1], 1.0, complete_graph(3))
        assert (bound.pairs, bound.edges) == (3, 1)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="positive"):
            report_count(2.0, [1, 1], 0.0)
        with pytest.raises(ValueError, match="positive"):
            report_count(2.0, [1, 1], -1.0)

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError, match="threshold must be positive and finite, got nan"):
            report_count(2.5, [1, 1, 1], math.nan)

    def test_infinite_threshold_certifies_nothing(self):
        # an infinite threshold is refused, so no report holds an inf
        with pytest.raises(ValueError, match="threshold must be positive and finite, got inf"):
            report_count(2.5, [1, 1, 1], math.inf, star_graph(3))

    def test_rejects_threshold_whose_ratio_overflows(self):
        with pytest.raises(ValueError, match="threshold .* is too small: excess/t overflows"):
            report_count(2.0, [1, 1], 1e-320)
        # with no excess the ratio is 0 at any threshold
        assert report_count(1.0, [1, 1], 1e-320).pairs_raw == 0.0

    def test_monotone_in_threshold(self):
        weights = [1.0, 1.0, 1.0]
        previous = None
        for t in (0.1, 0.5, 1.0, 2.0, 5.0):
            bound = report_count(3.0, weights, t)
            if previous is not None:
                assert bound.pairs <= previous
            previous = bound.pairs

    def test_exact_integer_ratio_not_overcounted(self):
        # raw ratio lands exactly on an integer: ceiling must not round up
        bound = report_count(3.0, [1.0, 1.0, 1.0], 2.0)
        assert bound.pairs_raw == pytest.approx(3.0, abs=1e-12)
        assert bound.pairs == 3


class TestPhiThreshold:
    def test_chsh_counts_two_pairs(self):
        inst = chsh_instance()
        beta = 2 * math.sqrt(2)
        bound = report_variant(beta, inst.weights, 2.0, 1.0)
        brute = brute_phi_breakdown(inst.x, inst.y)
        actual = sum(1 for phi in brute.values() if phi >= 2.0 - 1e-12)
        assert actual == 2
        assert bound.pairs <= actual
        # CHSH's two pairs are not forced: four scalar terms with a = 0.99
        # reach ||B|| = 3.9204 >= beta with every phi = 1.921 < 2
        assert bound.pairs == 0
        witness = scalar_instance(4, 0.99)
        assert oracle_norm(witness) >= beta
        witness_phi = brute_phi_breakdown(witness.x, witness.y)
        assert sum(1 for phi in witness_phi.values() if phi >= 2.0) == 0

    def test_huge_c_max_degenerates(self):
        # the effective threshold grows with c_max^2, driving the raw ratio
        # toward zero; no pair is forced, as four scalar terms with
        # a = 0.99 reach beta with every phi = 1.921 < 2
        beta = 2 * math.sqrt(2)
        bound = report_variant(beta, [1, 1, 1, 1], 2.0, 100.0)
        assert bound.pairs_raw == pytest.approx(4.0 / 20000.0, rel=1e-12)
        assert bound.pairs == 0
        witness = scalar_instance(4, 0.99)
        assert oracle_norm(witness) >= beta
        witness_phi = brute_phi_breakdown(witness.x, witness.y)
        assert sum(1 for phi in witness_phi.values() if phi >= 2.0) == 0
        tiny = report_variant(1.0, [1, 1], 2.0, 100.0)
        assert tiny.pairs == 0  # no excess at all

    def test_trivial_when_beta_small(self):
        assert report_variant(1.0, [1, 1], 1.0, 1.0).pairs == 0

    def test_rejects_oversized_weights(self):
        with pytest.raises(ValueError, match="c_max"):
            report_variant(2.0, [1.0, 1.5], 1.0, 1.0)

    def test_rejects_nan_phi_threshold_and_c_max(self):
        with pytest.raises(ValueError, match="phi threshold must be positive and finite, got nan"):
            report_variant(2.5, [1, 1, 1], math.nan, 1.0)
        with pytest.raises(ValueError, match="c_max must be positive and finite, got nan"):
            report_variant(2.5, [1, 1, 1], 0.5, math.nan)

    def test_effective_threshold(self):
        bound = report_variant(3.0, [0.5, 0.5, 0.5], 1.0, 0.5)
        assert bound.effective_threshold == pytest.approx(0.25)


class TestOverflow:
    """Finite inputs whose derived values overflow are refused by name."""

    def test_beta_whose_square_overflows(self):
        with pytest.raises(ValueError, match=r"observed value 1e\+200 is too large"):
            build_certificate_report(1e200, weights=[1, 1])

    def test_beta_whose_slack_scale_overflows(self):
        root = math.sqrt(np.finfo(float).max)
        # beta^2 and (sum |c|)^2 = max / 16 are finite, their sum is not
        with pytest.raises(ValueError, match="beta\\^2 \\+ \\(sum \\|c_i\\|\\)\\^2 overflows"):
            build_certificate_report(root * 0.999999, weights=[root / 8, root / 8])

    @pytest.mark.parametrize("c_max, phi_threshold", [(1e200, 1.0), (1e5, 1e300)])
    def test_effective_threshold_that_overflows(self, c_max, phi_threshold):
        with pytest.raises(ValueError, match="effective threshold c_max\\^2 \\* phi_threshold overflows"):
            report_variant(2.0, [1, 1], phi_threshold, c_max)

    @pytest.mark.parametrize("c_max, phi_threshold", [(math.inf, 1.0), (1.0, math.inf)])
    def test_infinite_variant_input_certifies_nothing(self, c_max, phi_threshold):
        # an infinite input is refused by name, so no report holds an inf
        with pytest.raises(ValueError, match="must be positive and finite, got inf"):
            report_variant(2.0, [1, 1], phi_threshold, c_max)

    def test_weights_whose_bounds_overflow(self):
        with pytest.raises(ValueError, match="weights too large"):
            build_certificate_report(2.0, weights=[1e200, 1.0])


class TestReportBuilder:
    def test_heisenberg_with_thresholds(self):
        ops = [pauli("x"), pauli("y"), pauli("z")]
        inst = TensorSumInstance(ops, ops)
        report = build_certificate_report(
            3.0, instance=inst, thresholds=(2.0,), beta_source="supplied"
        )
        assert report.sum_c_squared == 3.0
        assert report.excess == pytest.approx(6.0, abs=1e-12)
        (counting,) = report.counting
        assert counting.pairs == 3
        actual = count_pairs_at_least(
            brute_phi_breakdown(inst.x, inst.y), inst.weights, 2.0
        )
        assert actual == 3

    def test_phi_threshold_requires_c_max(self):
        with pytest.raises(ValueError, match="c_max"):
            build_certificate_report(2.0, weights=[1, 1], phi_threshold=1.0)

    def test_weights_and_graph_constant_computed_once(self, monkeypatch):
        calls = {"_as_weights": 0, "graph_constant": 0}
        for name in calls:
            original = getattr(certificates, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(certificates, name, counted)
        report = build_certificate_report(
            3.0, weights=[1, 1, 1, 1], g=star_graph(4), thresholds=(0.5, 1.0, 2.0),
            phi_threshold=1.0, c_max=1.0,
        )
        assert len(report.counting) == 3
        assert report.phi_threshold_variant is not None
        assert calls == {"_as_weights": 1, "graph_constant": 1}


class TestScaleInvariance:
    """Scaling beta, the weights and c_max by s = 2^k scales the excess
    and every cap by s^2, so with thresholds scaled by s^2 = 4^k every
    count stays the same (powers of two keep the arithmetic exact)."""

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=6
        ),
        signs=st.lists(st.booleans(), min_size=6, max_size=6),
        beta_fraction=st.floats(min_value=0.0, max_value=1.2),
        thresholds=st.lists(
            st.floats(min_value=0.01, max_value=4.0), min_size=1, max_size=3
        ),
        phi_threshold=st.floats(min_value=0.01, max_value=4.0),
        k=st.integers(min_value=-20, max_value=20),
        complete=st.booleans(),
    )
    def test_counts_unchanged(
        self, weights, signs, beta_fraction, thresholds, phi_threshold, k, complete
    ):
        w = np.array([-c if neg else c for c, neg in zip(weights, signs)])
        m = w.size
        graph = complete_graph(m) if complete else star_graph(m)
        beta = beta_fraction * float(np.sum(np.abs(w)))

        def counts(s):
            report = build_certificate_report(
                s * beta, weights=s * w, g=graph,
                thresholds=[s * s * t for t in thresholds],
                phi_threshold=phi_threshold, c_max=s * 1.0,
            )
            rows = (*report.counting, report.phi_threshold_variant)
            return [(row.pairs, row.edges) for row in rows]

        assert counts(2.0 ** k) == counts(1.0)


class TestSoundness:
    """The aggregate and counting certificates never exceed what the
    brute-force oracle finds. The counts are exact at concentration points
    where every heavy pair carries its full cap (the anticommuting-
    involution equality cases) and stay sound when the mass sits on a few
    heavy pairs. The acceptance suite exercises the full soundness claim.
    """

    @pytest.mark.parametrize("seed", range(40))
    def test_aggregate_consistent_with_actual_mass(self, seed):
        inst = random_instance(seed)
        beta = exact_reference(inst).lambda_max
        report = build_certificate_report(beta, instance=inst)
        actual = 0.0
        brute = brute_phi_breakdown(inst.x, inst.y)
        for (i, j), phi in brute.items():
            actual += abs(float(inst.weights[i]) * float(inst.weights[j])) * phi
        assert actual + 1e-8 >= report.aggregate_all_pairs

    @pytest.mark.parametrize("seed", range(40))
    def test_aggregate_edges_consistent_under_domination(self, seed):
        inst = random_instance(seed)
        rng = np.random.default_rng(seed + 50_000)
        from tensorbound import random_graph_min_degree_one

        graph = random_graph_min_degree_one(inst.m, rng)
        if not check_domination(inst, graph).satisfied:
            return
        beta = exact_reference(inst).lambda_max
        report = build_certificate_report(beta, instance=inst, g=graph)
        brute = brute_phi_breakdown(inst.x, inst.y)
        actual_edge_mass = sum(
            abs(float(inst.weights[i - 1]) * float(inst.weights[j - 1]))
            * brute[(i - 1, j - 1)]
            for i, j in graph.edges
        )
        assert actual_edge_mass + 1e-8 >= report.aggregate_edges

    def test_counting_sound_at_concentration_points(self):
        # all pinned example points put every heavy pair exactly at the
        # threshold
        gens = clifford_generators(2)
        two_gen = TensorSumInstance(gens, gens)
        ops = [pauli("x"), pauli("y"), pauli("z")]
        heisenberg = TensorSumInstance(ops, ops)
        for inst, t in ((two_gen, 2.0), (heisenberg, 2.0), (chsh_instance(), 2.0)):
            beta = exact_reference(inst).lambda_max
            bound = report_count(beta, inst.weights, t)
            actual = count_pairs_at_least(
                brute_phi_breakdown(inst.x, inst.y), inst.weights, t - 1e-12
            )
            assert actual >= bound.pairs

    def test_counting_overcounts_concentrated_mass(self):
        # the forced mass sits on one pair of mass 2: excess/t = 20 at
        # t = 0.1, but a pair carries up to its cap 2|c_i c_j|, so the count
        # is the one pair the oracle finds, not 20
        inst = TensorSumInstance([pauli("z"), pauli("x")], [pauli("z"), pauli("x")])
        beta = exact_reference(inst).lambda_max
        bound = report_count(beta, inst.weights, 0.1)
        actual = count_pairs_at_least(
            brute_phi_breakdown(inst.x, inst.y), inst.weights, 0.1
        )
        assert actual == 1
        assert bound.pairs_raw == pytest.approx(20.0, abs=1e-9)
        assert bound.pairs == 1

    @pytest.mark.parametrize("m", (3, 5, 20))
    def test_counting_sound_at_large_weights(self, m):
        # m commuting terms of weight s reach beta = m s with every pair
        # carrying 2 s^2 < t = 3 s^2; roundoff in the excess grows with
        # s^2, so the equality guard must scale with it
        for s in np.geomspace(1e-6, 1e8, 400):
            assert report_count(m * s, [s] * m, 3 * s * s).pairs == 0
        s = 30.06
        witness = TensorSumInstance([np.eye(1)] * m, [np.eye(1)] * m, [s] * m)
        assert oracle_norm(witness) == pytest.approx(m * s, rel=1e-12)
        brute = brute_phi_breakdown(witness.x, witness.y)
        assert count_pairs_at_least(brute, witness.weights, 3 * s * s) == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_edge_count_formula_matches_pair_formula_scaled(self, seed):
        inst = random_instance(seed)
        rng = np.random.default_rng(seed + 60_000)
        from tensorbound import random_graph_min_degree_one
        from tensorbound.graphs import graph_constant as c_of

        graph = random_graph_min_degree_one(inst.m, rng)
        beta = exact_reference(inst).lambda_max
        for t in T_GRID:
            bound = report_count(beta, inst.weights, t, graph)
            assert bound.edges_raw == pytest.approx(
                bound.pairs_raw / c_of(graph), rel=1e-12, abs=1e-15
            )
            assert bound.edges <= bound.pairs
