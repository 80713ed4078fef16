"""Noncommutativity certificates from an observed correlation value.

These invert the norm bounds: if a bipartite experiment reports a value
beta for the weighted sum, then beta^2 - sum(c_i^2), when positive,
forces a minimum amount of weighted interaction mass and therefore a
minimum number of pairs (or graph edges) whose interaction magnitude
clears a threshold. A negative beta certifies just as well since only
beta^2 enters.

All counts are conservative lower bounds and never negative. A count is
the fewest heavy pairs that can carry the forced mass when no pair can
carry more than its cap (see ``build_certificate_report``).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .bounds import DominationError, TensorSumInstance, _upper, check_domination, extreme_spectrum
from .bounds import as_weights as _as_weights  # the weights rule TensorSumInstance applies
from .graphs import InteractionGraph, graph_constant
from .linalg import DEFAULT_DIM_CAP

# Where the counting rule may meet the excess with equality, it does so with
# this much slack relative to beta^2 + (sum |c_i|)^2, the size of the terms
# the excess and the caps are summed from, so that double-precision noise
# cannot push the count up (which would overstate the certificate).
EQUALITY_GUARD = 1e-9

DOMINATION_VERIFIED = "verified"
DOMINATION_ASSERTED = "asserted, not verified"


def _fewest_heavy(target: float, caps: np.ndarray, t: float, slack: float) -> int:
    """Smallest N such that N heavy terms (mass >= t) and light ones can
    together add up to ``target``.

    A heavy term adds at most its cap. A light term adds at most
    min(cap, t), and strictly less than t when its cap is >= t. ``caps``
    are sorted in descending order, so reach(N), the sum of the N largest
    caps plus min(cap, t) over the rest, is the most that any N heavy
    terms and the light rest can add. N is possible when reach(N) >
    target and some remaining cap is >= t (the strict case takes no
    slack), or reach(N) >= target - slack otherwise. If no N is possible
    (the target exceeds the sum of all caps), the count is every term.
    """
    n = caps.size
    heavy_part = np.concatenate(([0.0], np.cumsum(caps)))
    light_part = np.concatenate((np.cumsum(np.minimum(caps, t)[::-1])[::-1], [0.0]))
    reach = heavy_part + light_part
    strict = np.append(caps >= t, False)
    possible = np.where(strict, reach > target, reach >= target - slack)
    hits = np.flatnonzero(possible)
    return int(hits[0]) if hits.size else n


@dataclass(frozen=True)
class CountingBound:
    """Lower bounds on how many pairs (and edges, when a graph applies)
    carry weighted interaction mass at least ``threshold``.

    ``pairs``/``edges`` are the certified counts. ``pairs_raw`` is
    excess/t and ``edges_raw`` is excess/(C(G) t): the mass the counts
    are derived from, in units of the threshold. They are not counts,
    because a single pair can carry more than t.
    """

    threshold: float
    pairs_raw: float
    pairs: int
    edges_raw: float | None = None
    edges: int | None = None


@dataclass(frozen=True)
class PhiThresholdBound:
    """Counting certificate restated for the unweighted magnitudes: with
    c_max = max |c_i|, pairs with phi_ij >= phi_threshold are counted by
    applying the weighted count at effective_threshold = c_max^2 * phi_threshold.
    """

    phi_threshold: float
    c_max: float
    effective_threshold: float
    pairs_raw: float
    pairs: int
    edges_raw: float | None = None
    edges: int | None = None


@dataclass(frozen=True)
class CertificateReport:
    """Everything certified from one observed value.

    ``aggregate_all_pairs`` bounds the total weighted interaction mass
    from below; ``aggregate_edges`` does the same for edge mass when a
    graph applies. ``domination`` records whether the edge-domination
    hypothesis behind the per-edge statements was actually checked
    (possible only when the full instance is available) or merely
    asserted by the caller.
    """

    beta: float
    beta_source: str  # 'supplied' or 'computed'
    sum_c_squared: float
    excess: float
    aggregate_all_pairs: float
    aggregate_edges: float | None = None
    graph_constant: float | None = None
    counting: tuple[CountingBound, ...] = ()
    phi_threshold_variant: PhiThresholdBound | None = None
    domination: str | None = None


def build_certificate_report(
    beta: float | None = None,
    *,
    weights=None,
    instance: TensorSumInstance | None = None,
    g: InteractionGraph | None = None,
    thresholds=(),
    phi_threshold: float | None = None,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> CertificateReport:
    """Certify from one observed value ``beta`` (by default ``instance``'s
    lambda_max, computed up to ``dim_cap``): the aggregates, one
    ``CountingBound`` per threshold, and, with ``phi_threshold``, the
    bounded-coefficient variant at c_max = max |c_i|.

    Counting: write X_i = x_i (x) y_i. Then B^2 = sum c_i^2 X_i^2 +
    sum_{i<j} c_i c_j {X_i, X_j}, and ||{X_i, X_j}|| <= min(2, phi_ij).
    So the excess beta^2 - sum c_i^2 is at most the sum over pairs of
    |c_i c_j| min(2, phi_ij): a heavy pair adds at most its cap
    2|c_i c_j|, a light pair less than t. The count is the fewest heavy
    pairs for which that sum can reach the excess. When beta exceeds
    sum |c_i| (beyond roundoff), no instance with these weights reaches
    it, and the count is every pair. With a graph (minimum degree >= 1,
    edge domination verified against ``instance`` or asserted by the
    caller), the edges are counted by the same rule with target
    excess/C(G) and caps 4|c_i c_j| over the edges, since the graph
    bound is stated in phi and phi_ij <= 4. A graph that fails domination
    against ``instance`` raises DominationError. Every threshold,
    ``phi_threshold`` and c_max^2 * phi_threshold must be positive and
    finite; the least c_max that |c_i| <= c_max allows is the strongest.
    """
    if (weights is None) == (instance is None):
        raise ValueError("provide exactly one of weights or instance")
    thresholds = tuple(thresholds)  # any iterable; truth of a numpy array raises
    w = instance.weights if instance is not None else _as_weights(weights)
    beta_source = "supplied"
    if beta is None:
        if instance is None:
            raise ValueError("beta is required with weights")
        beta = extreme_spectrum(instance, dim_cap=dim_cap).lambda_max
        beta_source = "computed"

    beta = float(beta)
    if not math.isfinite(beta):
        raise ValueError(f"observed value must be finite, got {beta}")
    a = np.abs(w)
    size = beta * beta + float(np.sum(a)) ** 2  # float * gives inf, ** raises
    if not math.isfinite(size):
        raise ValueError(f"observed value {beta:.12g} is too large: beta^2 + (sum |c_i|)^2 overflows")
    slack = EQUALITY_GUARD * size
    sum_c_sq = float(np.sum(w ** 2))
    excess = max(0.0, beta ** 2 - sum_c_sq)

    aggregate_edges = c_of_g = domination = None
    if g is not None:
        if instance is not None:
            report = check_domination(instance, g)
            if not report.satisfied:
                raise DominationError(report)
            domination = DOMINATION_VERIFIED
        else:
            if g.m != w.size:
                raise ValueError(f"graph has {g.m} vertices but there are {w.size} weights")
            domination = DOMINATION_ASSERTED
        c_of_g = graph_constant(g)
        aggregate_edges = excess / c_of_g
    if thresholds or phi_threshold is not None:  # the caps serve only the counts
        products = np.outer(a, a)
        pair_caps = np.sort(2.0 * products[_upper(w.size)])[::-1]
        if g is not None:
            edge_caps = np.sort(4.0 * products[(g.adjacency > 0) & _upper(w.size)])[::-1]

    def require_positive_finite(name: str, v: float) -> None:
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {v}")

    def count(t: float) -> CountingBound:
        require_positive_finite("threshold", t)
        if not math.isfinite(excess / t):
            raise ValueError(f"threshold {t:.12g} is too small: excess/t overflows")
        edges_raw = edges = None
        if g is not None:
            edges_raw = excess / (c_of_g * t)
            edges = _fewest_heavy(excess / c_of_g, edge_caps, t, slack)
        pairs = _fewest_heavy(excess, pair_caps, t, slack)
        return CountingBound(float(t), excess / t, pairs, edges_raw, edges)

    counting = tuple(count(t) for t in thresholds)

    variant = None
    if phi_threshold is not None:
        phi_threshold = float(phi_threshold)
        require_positive_finite("phi threshold", phi_threshold)
        c_max = float(np.max(a))
        t = c_max * c_max * phi_threshold  # float * gives 0 or inf, ** raises
        if not 0 < t < math.inf:
            raise ValueError(
                f"effective threshold c_max^2 * phi_threshold = {t:.12g} is not "
                f"positive and finite (c_max = max |c_i| = {c_max:.12g})"
            )
        # PhiThresholdBound's fields after c_max are CountingBound's, in order.
        variant = PhiThresholdBound(phi_threshold, c_max, *astuple(count(t)))

    return CertificateReport(
        beta=beta,
        beta_source=beta_source,
        sum_c_squared=sum_c_sq,
        excess=excess,
        aggregate_all_pairs=excess,
        aggregate_edges=aggregate_edges,
        graph_constant=c_of_g,
        counting=counting,
        phi_threshold_variant=variant,
        domination=domination,
    )
