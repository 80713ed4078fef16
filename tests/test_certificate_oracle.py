"""Certificate counts on every trial of the three gate sweeps, against the
SVD oracle.

The gate sweeps are ``sweep --trials 500 --seed 42``, the same with
``--graph-mode complete``, and the same with ``--max-m 9 --max-dim 5``.
Each trial's instance is rebuilt from its plan (sweep._plan) and certified
at beta = its exact lambda_max, with its graph when edge domination holds.
The thresholds are every distinct positive term |c_i c_j| phi_ij, the next
float above each (where the pair at that term stops counting), and twice
the largest term (where no pair counts).

Slack: the oracle counts the pairs and edges whose term is at least
t - 1e-9, acceptance criterion 9's convention, so that roundoff in the
oracle's own phi values (order 1e-15) cannot read as an overcount. A count
therefore promises at least that many pairs (edges) with a term within
1e-9 of t or above. Counted at t itself, trial 86 (m = 2, one edge) fails
in all three sweeps: one float above its one term, the excess lies about
4 ulps above that term, and the edge count is 1 where the truth is 0.
Whether the true term reaches t is below double-precision resolution
there.

The phi-threshold variant (c_max = max |c_i|) is checked on the same
trials at every distinct positive phi_ij and the next float above each,
against the oracle's count of pairs (edges) with plain phi >= t' - 1e-9.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from oracles import (
    brute_phi_breakdown,
    chained_bell,
    count_edges_at_least,
    count_pairs_at_least,
)
from tensorbound import (
    InteractionGraph,
    SweepConfig,
    TensorSumInstance,
    build_certificate_report,
    check_domination,
    exact_reference,
    random_operator,
)
from tensorbound.sweep import _plan, run_trial

# The oracle's slack on each threshold (see the module docstring).
SLACK = 1e-9

GATE_SWEEPS = {
    "seed-42": SweepConfig(trials=500, seed=42),
    "complete": SweepConfig(trials=500, seed=42, graph_mode="complete"),
    "m9-d5": SweepConfig(trials=500, seed=42, max_m=9, max_dim=5),
}

# Thresholds per sweep: 2 per distinct positive term, plus 1 per trial.
THRESHOLDS = {"seed-42": 5506, "complete": 5506, "m9-d5": 15570}
# Phi thresholds per sweep: 2 per distinct positive phi.
PHI_THRESHOLDS = {"seed-42": 4974, "complete": 4974, "m9-d5": 14892}


@dataclass(frozen=True)
class Count:
    """One emitted count beside the oracle's; edges are None without a graph."""

    trial: int
    t: float
    pairs: int
    true_pairs: int
    edges: int | None
    true_edges: int | None


def rebuilt_instance(config, index):
    """Trial ``index``'s instance and graph, made as run_trial makes them."""
    weights, recipes, graph = _plan(config, index)
    ops = [random_operator(kind, dim, [seed])[0] for kind, dim, seed in recipes]
    m = len(weights)
    return TensorSumInstance(ops[:m], ops[m:], weights), graph


def trial_counts(config, index):
    """Trial ``index``'s counts, as ``instance_counts`` gives them."""
    inst, graph = rebuilt_instance(config, index)
    return instance_counts(inst, graph, index)


def instance_counts(inst, graph, index):
    """Counts at beta = the exact lambda_max, with ``graph`` when edge
    domination holds, beside the oracle's; ``index`` labels them. Returns
    the counts at the term thresholds, then the phi-threshold variant's."""
    w = inst.weights
    brute = brute_phi_breakdown(inst.x, inst.y)
    terms = sorted({abs(float(w[i]) * float(w[j])) * phi for (i, j), phi in brute.items()} - {0.0})
    phis = sorted(set(brute.values()) - {0.0})
    if not phis:
        return [], []
    edge_graph = graph if check_domination(inst, graph).satisfied else None
    beta = exact_reference(inst).lambda_max

    def oracle(t, weights, bound):
        true_edges = None
        if edge_graph is not None:
            true_edges = count_edges_at_least(brute, weights, edge_graph.edges, t - SLACK)
        true_pairs = count_pairs_at_least(brute, weights, t - SLACK)
        return Count(index, t, bound.pairs, true_pairs, bound.edges, true_edges)

    counts = []
    if terms:
        thresholds = [*terms, *np.nextafter(terms, np.inf).tolist(), 2.0 * terms[-1]]
        report = build_certificate_report(beta, weights=w, g=edge_graph, thresholds=thresholds)
        counts = [oracle(t, w, bound) for t, bound in zip(thresholds, report.counting)]
    unit = np.ones(inst.m)
    variants = [
        oracle(t, unit, build_certificate_report(
            beta, weights=w, g=edge_graph, phi_threshold=t
        ).phi_threshold_variant)
        for t in [*phis, *np.nextafter(phis, np.inf).tolist()]
    ]
    return counts, variants


def overcounts(counts):
    """The counts that claim more pairs or edges than the oracle finds."""
    return [
        c
        for c in counts
        if c.pairs > c.true_pairs or (c.edges is not None and c.edges > c.true_edges)
    ]


@pytest.fixture(scope="module", params=sorted(GATE_SWEEPS))
def sweep(request):
    config = GATE_SWEEPS[request.param]
    counts, variants = [], []
    for i in range(config.trials):
        trial, trial_variants = trial_counts(config, i)
        counts += trial
        variants += trial_variants
    return request.param, counts, variants


def test_no_count_exceeds_the_oracle(sweep):
    name, counts, _ = sweep
    assert len(counts) == THRESHOLDS[name]
    assert any(c.edges is not None for c in counts)
    bad = overcounts(counts)
    assert not bad, f"{len(bad)} counts above the oracle, first {bad[:3]}"


@pytest.mark.parametrize("field", ["pairs", "edges"])
def test_a_count_raised_by_one_fails_the_oracle(sweep, field):
    _, counts, _ = sweep
    for c in counts:
        if getattr(c, field) is None:
            continue
        if overcounts([replace(c, **{field: getattr(c, field) + 1})]):
            return
    pytest.fail(f"no {field} count is tight, so a raised one would pass")


def test_no_variant_count_exceeds_the_oracle(sweep):
    name, _, variants = sweep
    assert len(variants) == PHI_THRESHOLDS[name]
    assert any(c.pairs > 0 for c in variants)
    assert any(c.edges is not None for c in variants)
    bad = overcounts(variants)
    assert not bad, f"{len(bad)} variant counts above the oracle, first {bad[:3]}"


@pytest.mark.parametrize("name", sorted(GATE_SWEEPS))
def test_rebuilt_trials_are_the_sweeps(name):
    config = GATE_SWEEPS[name]
    sample = range(0, config.trials, 50)
    for result in run_trial(config, sample):
        inst, _ = rebuilt_instance(config, result.index)
        norm = exact_reference(inst).spectral_norm
        assert (result.m, result.dim_h, result.dim_k) == (inst.m, inst.dim_h, inst.dim_k)
        assert result.exact_norm_squared == norm ** 2


@pytest.mark.parametrize("settings", range(2, 13))
def test_chained_bell_counts_stay_within_the_oracle(settings):
    # Tight instances at m = 2N up to 24 (ROADMAP item 10), where beta = the
    # exact lambda_max leaves an excess to certify, unlike most random trials.
    # The graph is the cycle that joins terms sharing an operator.
    m = 2 * settings
    inst = TensorSumInstance(*chained_bell(settings))
    cycle = InteractionGraph(m, [(k, k % m + 1) for k in range(1, m + 1)])
    counts, variants = instance_counts(inst, cycle, settings)
    bad = overcounts(counts + variants)
    assert not bad, f"{len(bad)} counts above the oracle, first {bad[:3]}"
    assert any(c.pairs > 0 for c in counts)
