"""Acceptance suite: one test per criterion, at the stated tolerances.

conftest.py prints one PASS/FAIL line per criterion. Criterion 9
checks that no emitted pair or edge count exceeds the brute-force count,
including instances whose certified interaction mass concentrates on a
few heavy pairs (see the two-spin case pinned in test_certificates.py),
and reports every offending case.
"""

import math
import time

import numpy as np
import pytest

from oracles import (
    brute_phi_breakdown,
    chsh_square_residual,
    count_edges_at_least,
    count_pairs_at_least,
    involution_defect,
    svd_norm,
    two_term_residual,
)
from tensorbound import (
    DominationError,
    SweepConfig,
    TensorSumInstance,
    build_certificate_report,
    build_report,
    check_domination,
    clifford_generators,
    complete_graph,
    exact_reference,
    graph_constant,
    pauli,
    random_graph_min_degree_one,
    random_operator,
    require_domination,
    run_sweep,
    star_graph,
)
from tensorbound.demos import build_demo
from test_bounds import random_instance

SZ = pauli("z")
SX = pauli("x")
SY = pauli("y")


def test_criterion_01_tsirelson_reproduction():
    start = time.monotonic()
    inst, graph = build_demo("chsh")
    assert graph is None
    # the fixture is exactly the stated operator quadruple
    b0 = (SZ + SX) / math.sqrt(2)
    b1 = (SZ - SX) / math.sqrt(2)
    assert np.array_equal(inst.x[0], SZ) and np.array_equal(inst.x[2], SX)
    assert np.array_equal(inst.y[0], b0) and np.array_equal(inst.y[1], b1)
    assert np.array_equal(inst.y[3], -b1)

    report = build_report(inst)
    assert report.complete_bound == pytest.approx(8.0, abs=1e-9)
    norm = exact_reference(inst).spectral_norm
    assert norm == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    assert time.monotonic() - start < 1.0


def test_criterion_02_chsh_identity():
    b0 = (SZ + SX) / math.sqrt(2)
    b1 = (SZ - SX) / math.sqrt(2)
    assert max(map(involution_defect, (SZ, SX, b0, b1))) <= 1e-9
    assert chsh_square_residual(SZ, SX, b0, b1) <= 1e-10

    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        dim_a = int(rng.integers(2, 5))
        dim_b = int(rng.integers(2, 5))

        base = 20_000 + seed * 10
        ops = [
            *random_operator("unitary_involution", dim_a, [base + 0, base + 1]),
            *random_operator("unitary_involution", dim_b, [base + 2, base + 3]),
        ]
        assert max(map(involution_defect, ops)) <= 1e-9
        assert chsh_square_residual(*ops) <= 1e-9


def test_criterion_03_clifford_equality_ladder():
    start = time.monotonic()
    for m in (2, 3, 4, 5, 6):
        gens = clifford_generators(m)
        inst = TensorSumInstance(gens, gens)
        assert exact_reference(inst).spectral_norm == pytest.approx(
            float(m), abs=1e-9
        )
        assert build_report(inst).complete_bound == float(m * m)  # exact
    assert time.monotonic() - start < 10.0


def test_criterion_04_heisenberg_spectrum():
    eigenvalues = exact_reference(TensorSumInstance([SX, SY, SZ], [SX, SY, SZ])).eigenvalues
    assert np.max(np.abs(eigenvalues - np.array([-3.0, 1.0, 1.0, 1.0]))) <= 1e-10


def test_criterion_05_counterexample_regression():
    inst, graph = build_demo("counterexample")
    report = build_report(inst, graph)
    assert report.total_phi_sum == pytest.approx(2.0, abs=1e-12)
    assert report.edge_phi_sum == pytest.approx(0.0, abs=1e-12)
    assert report.baseline_bound == pytest.approx(5.0, abs=1e-12)

    with pytest.raises(DominationError) as excinfo:
        require_domination(inst, graph)
    (violation,) = excinfo.value.report.violations
    assert violation.pair == (1, 3)
    assert violation.lhs == pytest.approx(2.0, abs=1e-12)
    assert violation.rhs == pytest.approx(0.0, abs=1e-12)

    exact_sq = exact_reference(inst).spectral_norm ** 2
    assert exact_sq == pytest.approx(4.0, abs=1e-9)
    # the edge-only formula bottoms out at m + C(G) * 0 = 3 for every
    # finite C(G), and 4 > 3, so no constant rescues it
    assert exact_sq > 3.0


def test_criterion_06_weighted_tightness():
    for m in (2, 3, 4, 5):
        gens = clifford_generators(m)
        for k in range(20):
            rng = np.random.default_rng(60_000 + 100 * m + k)
            weights = rng.uniform(-2.0, 2.0, m)
            inst = TensorSumInstance(gens, gens, weights)
            total = float(np.sum(np.abs(weights)))
            assert exact_reference(inst).spectral_norm == pytest.approx(
                total, abs=1e-9
            )
            assert build_report(inst).complete_bound == pytest.approx(
                total * total, rel=1e-12
            )


def test_criterion_07_dominance_sweep():
    start = time.monotonic()
    result = run_sweep(
        SweepConfig(
            trials=500,
            seed=42,
            max_m=5,
            max_dim=4,
            kinds=("contraction", "unitary_involution"),
            graph_mode="random_min_degree_1",
            tol=1e-8,
        )
    )
    assert result.violations == ()
    dominated = [t for t in result.trials if t.domination_satisfied]
    assert dominated, "sparse-bound clause never exercised"
    for t in dominated:
        assert t.exact_norm_squared <= t.sparse_bound + 1e-8
    assert time.monotonic() - start < 60.0


def test_criterion_08_two_term_sharpness():
    x1, x2, y1, y2 = SZ, SX, SZ, SX
    assert max(map(involution_defect, (x1, x2, y1, y2))) <= 1e-9
    assert svd_norm(x1 @ x2 + x2 @ x1) <= 1e-9 and svd_norm(y1 @ y2 + y2 @ y1) <= 1e-9
    assert svd_norm(np.kron(x1, y1) + np.kron(x2, y2)) == pytest.approx(2.0, abs=1e-10)
    assert two_term_residual(x1, x2, y1, y2) <= 1e-10
    assert involution_defect(np.kron(x1 @ x2, y1 @ y2)) <= 1e-9


def _fixture_instances():
    yield "chsh", *build_demo("chsh")
    yield "heisenberg", *build_demo("heisenberg")
    yield "two-spin", *build_demo("two-spin")
    yield "clifford-4", *build_demo("clifford", 4)
    yield "counterexample", *build_demo("counterexample")
    yield "star-5", *build_demo("star", 5)
    yield "chain-5", *build_demo("chain", 5)


def test_criterion_09_certificate_soundness():
    t_grid = (0.1, 0.5, 1.0, 2.0)
    unsound = []

    def check_case(label, inst, graph):
        beta = exact_reference(inst).lambda_max
        brute = brute_phi_breakdown(inst.x, inst.y)
        edge_graph = None
        if graph is not None and check_domination(inst, graph).satisfied:
            edge_graph = graph
        report = build_certificate_report(
            beta, weights=inst.weights, g=edge_graph, thresholds=t_grid
        )
        for t, bound in zip(t_grid, report.counting):
            # count against t - 1e-9 so boundary roundoff in the oracle's
            # phi values (order 1e-15) cannot masquerade as unsoundness
            actual_pairs = count_pairs_at_least(brute, inst.weights, t - 1e-9)
            if actual_pairs < bound.pairs:
                unsound.append(
                    f"{label} t={t}: emitted N_t={bound.pairs} > actual {actual_pairs}"
                )
            if edge_graph is not None:
                actual_edges = count_edges_at_least(
                    brute, inst.weights, edge_graph.edges, t - 1e-9
                )
                if actual_edges < bound.edges:
                    unsound.append(
                        f"{label} t={t}: emitted edge count {bound.edges} "
                        f"> actual {actual_edges}"
                    )

    for label, inst, graph in _fixture_instances():
        check_case(label, inst, graph)
    for seed in range(200):
        inst = random_instance(seed)
        graph = random_graph_min_degree_one(
            inst.m, np.random.default_rng(90_000 + seed)
        )
        check_case(f"random-{seed}", inst, graph)

    # pinned equality point: Heisenberg with beta = 3, t = 2
    ops = [SX, SY, SZ]
    heisenberg = TensorSumInstance(ops, ops)
    (bound,) = build_certificate_report(
        3.0, weights=heisenberg.weights, thresholds=(2.0,)
    ).counting
    assert bound.pairs == 3
    actual = count_pairs_at_least(
        brute_phi_breakdown(heisenberg.x, heisenberg.y), heisenberg.weights, 2.0
    )
    assert actual == 3

    preview = "; ".join(unsound[:8])
    assert not unsound, (
        f"{len(unsound)} unsound counting certificates "
        f"(excess/t overcounts concentrated mass): {preview} ..."
    )


def test_criterion_10_graph_constant():
    for m in range(2, 51):
        assert graph_constant(complete_graph(m)) == 1.0
        assert graph_constant(star_graph(m)) == float(2 * m - 3)
