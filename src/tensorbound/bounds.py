"""Norm bounds for weighted bipartite tensor sums B = sum_i c_i x_i (x) y_i.

The bounds depend on the operators only through the pairwise interaction
magnitudes

    phi_ij = (||[x_i,x_j]|| ||[y_i,y_j]|| + ||{x_i,x_j}|| ||{y_i,y_j}||) / 2

and never assemble the product space, so they are dimension-free. The
exact reference path does assemble it (under the dimension cap) and
diagonalizes, giving ground truth to compare the bounds against; when only
the extreme eigenvalues are needed, ``extreme_spectrum`` finds them by
matrix-free Lanczos on larger product spaces. Both return
``linalg.ExtremeSpectrum``, which names the method that produced it.

Index convention: operators are stored 0-based (Python); pairs in reports
and error messages are 1-based to match the graph module.
"""

from __future__ import annotations

import functools
import math
import mmap
from dataclasses import dataclass, field, replace

import numpy as np

from .families import validate
from .graphs import InteractionGraph, graph_constant
from .linalg import (
    BATCH_ENTRIES,
    DEFAULT_DIM_CAP,
    LANCZOS_TOL,
    ExtremeSpectrum,
    as_operator,
    check_dim_cap,
    hermitian_eig,
    kron,
    lanczos_extremes,
    spectral_norm,
)

# Relative slack on the edge-domination comparison of a non-edge, in units
# of the largest pair weight |c_a c_b| that enters it (1 when unweighted).
DOM_TOL = 1e-12

# extreme_spectrum assembles and diagonalizes B up to this product
# dimension and runs Lanczos above it. At m=10 on a 2-core x86 host, dense
# and Lanczos break even near n=256 (0.6 ms against 3.2 ms at n=64, 82 ms
# against 26 ms at n=512).
LANCZOS_MIN_DIM = 256

# From this size on numpy advises huge pages, which would make B_c's
# unwritten upper triangle resident; exact_reference maps B_c instead (_zeros).
_MAP_BYTES = 4 << 20


def as_weights(weights, m: int | None = None) -> np.ndarray:
    """``m`` weights (any nonempty number when None) as finite floats with 4 m
    (sum |c_i|)^2 finite, which bounds every value computed from them."""
    try:
        w = np.asarray(weights)
        if w.dtype.kind == "c":  # the cast to float would drop the imaginary parts
            raise TypeError
        w = w.astype(float, copy=False)
    except (OverflowError, TypeError, ValueError):  # a huge integer, a complex, a string, ragged
        raise ValueError("weights must be finite reals") from None
    if m is not None and w.shape != (m,):
        raise ValueError(f"expected {m} weights, got shape {w.shape}")
    if w.ndim != 1 or w.size < 1:
        raise ValueError(f"weights must be a nonempty vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite reals")
    total = sum(map(abs, w.tolist()))  # Python floats overflow to inf without a warning
    if not math.isfinite(4 * w.size * total * total):
        raise ValueError("weights too large: 4 m (sum |c_i|)^2 overflows")
    return w


def _side_stack(side: str, ops: list, m: int) -> tuple[np.ndarray, int]:
    """One side's operators as a checked (k, d, d) stack and the index k of
    its first operator whose dimension differs from the first's (m when
    none does), for TensorSumInstance to validate before it refuses k.

    One as_operator call converts and scans the whole side. Only when that
    fails does each operator go through as_operator on its own, converted
    in place in ``ops``, to name the first one that is malformed,
    non-finite or not square, or else to find k.
    """
    try:
        return as_operator(ops, stack=True), m
    except ValueError:
        pass
    for k, a in enumerate(ops):
        try:
            ops[k] = as_operator(a)
        except ValueError as err:
            raise ValueError(f"{side} operator {k + 1} of {m}: {err}") from None
    dim = ops[0].shape[0]
    equal = next((k for k, op in enumerate(ops) if op.shape[0] != dim), m)
    return np.stack(ops[:equal]), equal


@dataclass(frozen=True, eq=False)
class TensorSumInstance:
    """A weighted tensor-sum problem: x_i on H, y_i on K, real weights c_i.

    Every operator must be a self-adjoint contraction. This is the one
    place operators are checked, and a failure raises ValueError: first
    the count of x and y, then the weights (all ones by default, otherwise
    checked by as_weights), then x and y in turn. Each side is checked in
    one pass: _side_stack converts and scans it into a stack, its adjoint
    is taken once, and families.validate checks the stack against it up
    to the side's first dimension mismatch, so a refusal names the first
    failing operator of the first failing side. ``x`` and ``y`` are
    stored as read-only complex stacks of shape (m, dim_h, dim_h) and
    (m, dim_k, dim_k), each its own adjoint: an entry that is not the
    conjugate of its mirror becomes that of the Hermitian part (a + a*)/2,
    of norm at most ||a||, so an exactly Hermitian side keeps its bits.
    """

    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray

    def __init__(self, x, y, weights=None):
        x, y = list(x), list(y)
        if len(x) != len(y) or not x:
            raise ValueError(f"need equally many x and y operators, got {len(x)} and {len(y)}")
        m = len(x)
        w = np.ones(m) if weights is None else as_weights(weights, m)
        for side, ops in (("x", x), ("y", y)):
            stack, equal = _side_stack(side, ops, m)
            adjoint = np.swapaxes(stack.conj(), -1, -2)
            if failure := validate(stack, adjoint):
                k, reason = failure
                raise ValueError(f"{side} operator {k + 1} of {m}: {reason}")
            if equal < m:
                raise ValueError(
                    f"{side} operator {equal + 1} of {m}: dimension "
                    f"{ops[equal].shape[0]} differs from the first {side} operator's "
                    f"dimension {stack.shape[1]}"
                )
            if not np.array_equal(stack, adjoint):  # the Hermitian part, mirrored bitwise
                stack = np.where(stack == adjoint, stack, (stack + adjoint) / 2)
            stack.flags.writeable = False
            object.__setattr__(self, side, stack)
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return self.x.shape[0]

    @property
    def dim_h(self) -> int:
        return self.x.shape[1]

    @property
    def dim_k(self) -> int:
        return self.y.shape[1]


@dataclass(frozen=True, eq=False)
class PhiTable:
    """Symmetric (m, m) table of the pairwise interaction magnitudes phi_ij,
    0-based, with a zero diagonal: ``values[i - 1, j - 1]`` is phi for the
    1-based pair (i, j). ``m`` is read from the table's shape.
    """

    values: np.ndarray

    @property
    def m(self) -> int:
        return self.values.shape[0]


def _pair_norms(ops: np.ndarray, first: np.ndarray, second: np.ndarray):
    """||[a_i, a_j]|| and ||{a_i, a_j}|| for every pair (first[k], second[k])
    of matrices in the stack ``ops``, as the two rows of one array.

    Each pair takes one product P = a_i a_j: for self-adjoint a, b,
    ba = (ab)*, so [a, b] = P - P* and {a, b} = P + P*, whose norms are those
    of the Hermitian i(P - P*) and P + P*, and one eigvalsh per batch
    (linalg.spectral_norm) gives both.

    Pairs go through in batches of k, their i(P - P*) and P + P* written
    into one (2k, d, d) stack of at most max(2 d^2, BATCH_ENTRIES) entries:
    one batch holds all 45 pairs of 10 operators up to d = 26, or all 780
    pairs of 40 operators up to d = 6. eigvalsh takes each matrix on its
    own, so no norm depends on the batch it is in.
    """
    d, count = ops.shape[1], len(first)
    step = max(1, BATCH_ENTRIES // (2 * d * d))
    stack = np.empty((2 * min(step, count), d, d), dtype=complex)
    norms = np.empty((2, count))
    for start in range(0, count, step):
        p = ops[first[start : start + step]] @ ops[second[start : start + step]]
        k = len(p)
        p_adj = np.swapaxes(p.conj(), -1, -2)
        np.subtract(p, p_adj, out=stack[:k])
        stack[:k] *= 1j
        np.add(p, p_adj, out=stack[k : 2 * k])
        norms[:, start : start + k] = spectral_norm(stack[: 2 * k]).reshape(2, k)
    return norms


@functools.lru_cache(maxsize=64)
def _upper(m: int) -> np.ndarray:
    """Read-only (m, m) mask of i < j, whose pairs run in np.triu_indices(m, 1) order."""
    mask = np.arange(m)[:, None] < np.arange(m)
    mask.flags.writeable = False
    return mask


def phi_table(inst: TensorSumInstance) -> PhiTable:
    """Interaction magnitudes phi_ij for all pairs of an instance, computed
    per side by batched products and batched norms (see _pair_norms)."""
    m = inst.m
    upper = _upper(m)
    pairs = np.nonzero(upper)
    comm_x, anti_x = _pair_norms(inst.x, *pairs)
    comm_y, anti_y = _pair_norms(inst.y, *pairs)
    table = np.zeros((m, m))
    table[upper] = 0.5 * (comm_x * comm_y + anti_x * anti_y)
    return PhiTable(table + table.T)


def _sum_in_order(terms: np.ndarray) -> float:
    """Left-to-right sum of a 1-d array. Pairwise summation would change
    the last bits of reported bounds whenever there are 8 or more terms."""
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


@dataclass(frozen=True)
class DominationCheck:
    """One non-edge comparison; pair is 1-based, slack = rhs - lhs."""

    pair: tuple[int, int]
    lhs: float
    rhs: float
    slack: float


@dataclass(frozen=True)
class DominationReport:
    """Outcome of the edge-domination check for every non-edge.

    ``checks`` records the numbers for every non-edge, violating or not;
    ``violations`` those where lhs exceeds rhs by more than the tolerance
    (see check_domination). ``satisfied`` is set from ``violations``.
    """

    weighted: bool
    satisfied: bool = field(init=False)
    checks: tuple[DominationCheck, ...]
    violations: tuple[DominationCheck, ...]

    def __post_init__(self):
        object.__setattr__(self, "satisfied", not self.violations)


class DominationError(ValueError):
    """Edge domination fails, so the graph-restricted bound is not proven.

    Carries the failing DominationReport as ``report``; the message names
    how many non-edges violate and the worst of them (least slack).
    """

    def __init__(self, report: DominationReport):
        worst = min(report.violations, key=lambda c: c.slack)
        super().__init__(
            f"edge domination fails at {len(report.violations)} non-edge(s); "
            f"worst at pair {worst.pair}: lhs {worst.lhs:.12g} > rhs {worst.rhs:.12g}"
        )
        self.report = report


def check_domination(
    inst: TensorSumInstance,
    g: InteractionGraph,
    weighted: bool = True,
    phi: PhiTable | None = None,
) -> DominationReport:
    """Test, for every non-edge (i, j), whether its interaction is dominated
    by the degree-averaged interactions along the incident edges:

        w_ij phi_ij <= avg_{k in N(i)} w_ik phi_ik + avg_{k in N(j)} w_jk phi_jk

    with w_ij = |c_i c_j| in weighted mode and 1 otherwise. A vertex with
    no neighbors contributes an empty average, i.e. zero, to the right side.
    A non-edge violates when lhs > rhs + DOM_TOL * s, with s the largest
    w_ab in its comparison (w_ij and the w of every incident edge), so
    scaling all weights by a power of two never changes the outcome.
    A graph with no non-edge satisfies domination vacuously, and phi is
    not evaluated for the check.
    """
    if g.m != inst.m:
        raise ValueError(f"graph has {g.m} vertices but instance has m={inst.m}")
    adj, degree = g.adjacency, g.degrees
    i, j = np.nonzero((adj == 0) & _upper(inst.m))
    if i.size == 0:
        return DominationReport(weighted=weighted, checks=(), violations=())
    if phi is None:
        phi = phi_table(inst)
    m = inst.m
    w = np.abs(np.outer(inst.weights, inst.weights)) if weighted else np.ones((m, m))
    terms = w * phi.values
    # each row summed left to right over the neighbors in ascending order
    neighbor_sum = np.cumsum(terms * adj, axis=1)[:, -1]
    average = np.divide(neighbor_sum, degree, out=np.zeros(m), where=degree > 0)
    largest = (w * adj).max(axis=1)
    lhs = terms[i, j]
    rhs = average[i] + average[j]
    scale = np.maximum(w[i, j], np.maximum(largest[i], largest[j]))
    violated = (lhs > rhs + DOM_TOL * scale).tolist()
    checks = tuple(
        DominationCheck(pair=(a + 1, b + 1), lhs=left, rhs=right, slack=right - left)
        for a, b, left, right in zip(i.tolist(), j.tolist(), lhs.tolist(), rhs.tolist())
    )
    violations = tuple(c for c, bad in zip(checks, violated) if bad)
    return DominationReport(weighted=weighted, checks=checks, violations=violations)


def exact_reference(
    inst: TensorSumInstance, *, dim_cap: int = DEFAULT_DIM_CAP
) -> ExtremeSpectrum:
    """Assemble B_c = sum c_i x_i (x) y_i and diagonalize it ("dense").

    ``lambda_max`` is the largest state correlator sup_rho tr(rho B_c),
    attained at the top eigenvector; ``spectral_norm`` is ||B_c||, and
    ``eigenvalues`` holds the whole spectrum, ascending.

    B_c is filled in horizontal strips of whole x rows: the strip of x rows
    r:e is one kron(c x[:, r:e, :e], y), of at most max(BATCH_ENTRIES,
    dim_k * n) entries, whose sums over i run in BLAS's order. A strip
    reaches only up to its own diagonal block, Hermitian like every operator:
    hermitian_eig reads B_c's lower triangle alone, in real arithmetic when
    B_c is real. From n = 512 on, B_c lies in a private map (_zeros), so
    only the pages the strips write become resident, a little over half of
    B_c. Peak memory is that half plus LAPACK's copy, about 1.5 n^2 * 16
    bytes (1.06 n^2 * 16 for a real B_c, whose copy is float).
    """
    dh, dk = inst.dim_h, inst.dim_k
    check_dim_cap(dh, dk, dim_cap)
    n = dh * dk
    rows = max(1, BATCH_ENTRIES // (dk * n))  # one strip up to n = 256
    c = inst.weights[:, None, None]
    b = _zeros(n)
    for r in range(0, dh, rows):
        e = min(r + rows, dh)
        b[r * dk : e * dk, : e * dk] = kron(c * inst.x[:, r:e, :e], inst.y)
    return hermitian_eig(b)


def _zeros(n: int) -> np.ndarray:
    """An (n, n) complex zero matrix whose pages become resident only when
    written.

    From _MAP_BYTES on it is a private anonymous map with 4 KiB pages: a
    read of a page never written maps the kernel's shared zero page, so
    LAPACK's copy of B_c reads the upper triangle without making it
    resident. Smaller matrices, and platforms without private maps, take
    np.zeros, which is cheaper where sweeps run (0.45 against 3.3 us at
    n = 16 on a 2-core x86 host).
    """
    size = 16 * n * n
    if size < _MAP_BYTES or not hasattr(mmap, "MAP_PRIVATE"):
        return np.zeros((n, n), dtype=complex)
    buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=complex).reshape(n, n)


def _tensor_sum_matvec(inst: TensorSumInstance):
    """v -> B_c v without forming B_c.

    np.kron orders the product basis row-major, so v is the (dim_h, dim_k)
    matrix V and (x (x) y) v is x V y^T. Two matrix products sum all terms:
    the stacked c_i x_i times V gives every c_i x_i V at once, and the
    (dim_h, m*dim_k) block row [c_i x_i V] times the stacked y_i^T sums them.
    """
    dh, dk = inst.dim_h, inst.dim_k
    xcat = (inst.weights[:, None, None] * inst.x).reshape(inst.m * dh, dh)
    ys_t = inst.y.transpose(0, 2, 1).reshape(inst.m * dk, dk)

    def matvec(v: np.ndarray) -> np.ndarray:
        t = (xcat @ v.reshape(dh, dk)).reshape(inst.m, dh, dk)
        return (t.transpose(1, 0, 2).reshape(dh, inst.m * dk) @ ys_t).reshape(-1)

    return matvec


def extreme_spectrum(
    inst: TensorSumInstance, *, dim_cap: int = DEFAULT_DIM_CAP
) -> ExtremeSpectrum:
    """lambda_min, lambda_max and ||B_c||; the whole spectrum only when it
    is computed densely.

    Up to LANCZOS_MIN_DIM this is exact_reference. Larger product spaces,
    up to ``dim_cap``, run matrix-free Lanczos with tolerance
    LANCZOS_TOL * max(1, sum |c_i|), which bounds ||B_c|| because every
    operator is a contraction. The Lanczos result is returned as it is
    when the explicit residual of its run is within that tolerance;
    otherwise exact_reference runs instead ("dense-fallback", keeping the
    run's steps and residual beside the dense eigenvalues). Raises
    ValueError above ``dim_cap``, like exact_reference.
    """
    check_dim_cap(inst.dim_h, inst.dim_k, dim_cap)
    n = inst.dim_h * inst.dim_k
    run = None
    if n > LANCZOS_MIN_DIM:
        scale = max(1.0, float(np.sum(np.abs(inst.weights))))
        run = lanczos_extremes(_tensor_sum_matvec(inst), n, scale)
        if run.residual <= LANCZOS_TOL * scale:
            return run
    dense = exact_reference(inst, dim_cap=dim_cap)
    if run is None:
        return dense
    return replace(dense, method="dense-fallback", steps=run.steps, residual=run.residual)


# ---------------------------------------------------------------------------
# Aggregated report

PROVENANCE = {
    "baseline_bound": "all-pairs baseline: sum(c_i^2) + sum_{i<j} |c_i c_j| phi_ij",
    "complete_bound": "complete-graph bound: sum(c_i^2) + sum_{i<j} |c_i c_j| phi_ij",
    "sparse_bound": "graph-restricted bound: sum(c_i^2) + C(G) * sum_edges |c_i c_j| phi_ij, valid under edge domination",
    "graph_constant": "connectivity factor C(G) = 2(m-1)/min_degree - 1",
}


def _exact_provenance(spec: ExtremeSpectrum) -> str:
    """How build_report's exact_norm_squared was computed."""
    if spec.method == "dense":
        return "squared spectral norm of the assembled tensor sum (dense eigvalsh)"
    lanczos = (
        f"{spec.steps} Lanczos steps, explicit residual {spec.residual:.1e}, "
        f"tolerance {LANCZOS_TOL:g} * max(1, sum |c_i|)"
    )
    if spec.method == "lanczos":
        return f"squared spectral norm of the tensor sum (matrix-free: {lanczos})"
    return (
        "squared spectral norm of the assembled tensor sum (dense eigvalsh "
        f"after Lanczos missed its tolerance: {lanczos})"
    )


@dataclass(frozen=True)
class BoundReport:
    """Everything the engine can say about one instance.

    ``baseline_bound`` repeats ``complete_bound``: the same all-pairs
    value, kept in the schema so the graph path shows what restricting to
    edges buys or costs. ``sparse_bound`` is present only when a graph was
    supplied, has minimum degree >= 1, and passes edge domination.
    ``exact_norm_squared`` is present only under the dimension cap;
    ``provenance`` says how it was computed, or why it was not.
    """

    m: int
    dim_h: int
    dim_k: int
    sum_c_squared: float
    total_phi_sum: float
    baseline_bound: float
    complete_bound: float
    graph_constant: float | None = None
    edge_phi_sum: float | None = None
    sparse_bound: float | None = None
    domination: DominationReport | None = None
    exact_norm_squared: float | None = None
    exact_lambda_max: float | None = None
    provenance: dict[str, str] = field(default_factory=lambda: dict(sorted(PROVENANCE.items())))


def build_report(
    inst: TensorSumInstance,
    g: InteractionGraph | None = None,
    *,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> BoundReport:
    """Compute every applicable bound (and the exact norm from
    extreme_spectrum when the product dimension is under the cap) for one
    instance. This is the one place bound values are computed, all from
    the table of terms |c_i c_j| phi_ij:

        complete = sum c_i^2 + sum_{i<j} |c_i c_j| phi_ij
        sparse   = sum c_i^2 + C(G) * sum_edges |c_i c_j| phi_ij

    The sparse bound is proven only under edge domination and needs a
    graph of minimum degree >= 1. Never raises on domination failure or an
    oversized product space; the corresponding fields simply stay None,
    with the domination report recording any violations.
    """
    phi = phi_table(inst)
    w = inst.weights
    terms = np.abs(np.outer(w, w)) * phi.values
    sum_c_sq = float(np.sum(w ** 2))
    upper = _upper(inst.m)
    pair_sum = _sum_in_order(terms[upper])
    complete = sum_c_sq + pair_sum

    c_of_g = edge_sum = sparse = domination = None
    if g is not None:
        domination = check_domination(inst, g, weighted=True, phi=phi)
        edge_sum = _sum_in_order(terms[(g.adjacency > 0) & upper])  # edges in sorted order
        if g.min_degree() > 0:
            c_of_g = graph_constant(g)
            if domination.satisfied:
                sparse = sum_c_sq + c_of_g * edge_sum

    exact_sq = None
    lam_max = None
    n = inst.dim_h * inst.dim_k
    if n <= dim_cap:
        spec = extreme_spectrum(inst, dim_cap=dim_cap)
        exact_sq = spec.spectral_norm ** 2
        lam_max = spec.lambda_max
        exact_note = _exact_provenance(spec)
    else:
        exact_note = f"not computed: product dimension {n} exceeds dim-cap {dim_cap}"
    provenance = {**PROVENANCE, "exact_norm_squared": exact_note}

    return BoundReport(
        m=inst.m,
        dim_h=inst.dim_h,
        dim_k=inst.dim_k,
        sum_c_squared=sum_c_sq,
        total_phi_sum=pair_sum,
        baseline_bound=complete,
        complete_bound=complete,
        graph_constant=c_of_g,
        edge_phi_sum=edge_sum,
        sparse_bound=sparse,
        domination=domination,
        exact_norm_squared=exact_sq,
        exact_lambda_max=lam_max,
        provenance=dict(sorted(provenance.items())),
    )


def exceeded_bounds(report: BoundReport, tol: float) -> list[tuple[str, float]]:
    """(name, value) of every bound in ``report`` that its exact_norm_squared
    exceeds by more than ``tol * value``, a slack that scales with the weights
    as both sides do. Any entry means a bug, since the bounds are proven."""
    exact = report.exact_norm_squared
    if exact is None:
        return []
    bounds = (("complete bound", report.complete_bound), ("sparse bound", report.sparse_bound))
    return [(name, b) for name, b in bounds if b is not None and exact > b + tol * b]
