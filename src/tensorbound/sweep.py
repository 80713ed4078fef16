"""Randomized verification sweep.

Each trial draws a random instance (seeded, reproducible) and runs
``build_report`` on it: the bounds, and the exact squared norm by dense
diagonalization up to product dimension 256 (matrix-free Lanczos above).
The exact value is checked against every bound that applies. Any
violation signals an implementation bug, since the inequalities
themselves are proven.

Per-trial seeds are derived from (sweep seed, trial index), and each
operator gets its own seed from its trial's generator, so results do not
depend on the order or grouping of trials. run_trial takes a sequence of
trial indices: it plans each trial as (kind, dim, seed) operator recipes,
draws the operators of all of them as stacks, one
random_operator(kind, dim, seeds) call per (kind, dim), and then
evaluates each trial alone. run_sweep passes it SWEEP_CHUNK trials at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import TensorSumInstance, build_report, exceeded_bounds
from .families import ENSEMBLE_KINDS, RNG_ALGORITHM, random_operator
from .graphs import complete_graph, random_graph_min_degree_one
from .linalg import DEFAULT_DIM_CAP, check_dim_cap

GRAPH_MODES = ("complete", "random_min_degree_1")

# Trials whose operators run_sweep draws at a time: its memory stays that of one chunk.
SWEEP_CHUNK = 256


@dataclass(frozen=True)
class SweepConfig:
    """Deterministic sweep recipe: identical configs give identical results."""

    trials: int
    seed: int
    max_m: int = 5
    max_dim: int = 4
    kinds: tuple[str, ...] = ENSEMBLE_KINDS
    graph_mode: str = "random_min_degree_1"
    tol: float = 1e-8
    dim_cap: int = DEFAULT_DIM_CAP

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.max_m < 2:
            raise ValueError("max_m must be at least 2")
        if self.max_dim < 1:
            raise ValueError("max_dim must be positive")
        if not self.kinds or any(k not in ENSEMBLE_KINDS for k in self.kinds):
            raise ValueError(f"kinds must be a nonempty subset of {ENSEMBLE_KINDS}")
        if self.graph_mode not in GRAPH_MODES:
            raise ValueError(f"graph_mode must be one of {GRAPH_MODES}")
        if not 0 <= self.tol < np.inf:
            raise ValueError(f"tol must be finite and non-negative, got {self.tol!r}")
        if self.dim_cap < 1:
            raise ValueError(f"dim_cap must be at least 1, got {self.dim_cap!r}")


@dataclass(frozen=True)
class TrialResult:
    index: int
    m: int
    dim_h: int
    dim_k: int
    exact_norm_squared: float
    complete_bound: float
    complete_ratio: float
    domination_satisfied: bool
    sparse_bound: float | None
    sparse_ratio: float | None
    violations: tuple[str, ...]


def trial_seed(sweep_seed: int, index: int) -> int:
    """64-bit operator-ensemble seed derived from (sweep seed, trial index)."""
    ss = np.random.SeedSequence([sweep_seed, index])
    return int(ss.generate_state(1, np.uint64)[0])


def _plan(config: SweepConfig, index: int):
    """What a trial draws from its own generator, in this order: m, dim_h,
    dim_k, the weights, 2m operator recipes (x_1..x_m, then y_1..y_m, each
    a (kind, dim, seed) tuple) and the graph. No operator is made here."""
    rng = np.random.Generator(np.random.PCG64(trial_seed(config.seed, index)))
    m = int(rng.integers(2, config.max_m + 1))
    dims = [int(rng.integers(1, config.max_dim + 1)) for _ in range(2)]  # dim_h, dim_k
    weights = rng.uniform(-2.0, 2.0, m)
    recipes = []
    for dim in dims:
        for _ in range(m):
            kind = config.kinds[int(rng.integers(0, len(config.kinds)))]
            seed = int(rng.integers(0, 2 ** 64, dtype=np.uint64))
            recipes.append((kind, dim, seed))
    if config.graph_mode == "complete":
        return weights, recipes, complete_graph(m)
    return weights, recipes, random_graph_min_degree_one(m, rng)


def _ratio(exact_sq: float, bound: float) -> float:
    return exact_sq / bound if bound > 0 else 0.0


def _trial_result(config: SweepConfig, index: int, inst: TensorSumInstance, report) -> TrialResult:
    exact_sq = report.exact_norm_squared
    sparse = report.sparse_bound
    return TrialResult(
        index=index,
        m=inst.m,
        dim_h=inst.dim_h,
        dim_k=inst.dim_k,
        exact_norm_squared=exact_sq,
        complete_bound=report.complete_bound,
        complete_ratio=_ratio(exact_sq, report.complete_bound),
        domination_satisfied=report.domination.satisfied,
        sparse_bound=sparse,
        sparse_ratio=None if sparse is None else _ratio(exact_sq, sparse),
        violations=tuple(
            f"trial {index}: exact^2 {exact_sq:.12g} exceeds {name} {value:.12g}"
            for name, value in exceeded_bounds(report, config.tol)
        ),
    )


def run_trial(config: SweepConfig, indices) -> tuple[TrialResult, ...]:
    """The TrialResults of a sequence of trial indices, in order.

    Every trial first draws its plan (_plan) from its own generator. The
    first trial above the dimension cap raises ValueError before any
    operator is made. One random_operator call per (kind, dim) then
    makes the operators of all the trials, and build_report evaluates each
    trial alone, so no trial's result depends on the others.
    """
    indices = list(indices)
    plans = [_plan(config, i) for i in indices]
    groups: dict[tuple[str, int], list[int]] = {}
    for _, recipes, _ in plans:
        check_dim_cap(recipes[0][1], recipes[-1][1], config.dim_cap)  # dim_h, dim_k
        for kind, dim, seed in recipes:
            groups.setdefault((kind, dim), []).append(seed)
    made = {key: iter(random_operator(*key, seeds)) for key, seeds in groups.items()}
    results = []
    for i, (weights, recipes, graph) in zip(indices, plans):
        ops = [next(made[kind, dim]) for kind, dim, _ in recipes]
        inst = TensorSumInstance(ops[: len(weights)], ops[len(weights) :], weights)
        report = build_report(inst, graph, dim_cap=config.dim_cap)
        results.append(_trial_result(config, i, inst, report))
    return tuple(results)


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    trials: tuple[TrialResult, ...]

    @property
    def violations(self) -> tuple[str, ...]:
        out = []
        for t in self.trials:
            out.extend(t.violations)
        return tuple(out)

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> dict:
        complete_ratios = [t.complete_ratio for t in self.trials]
        sparse_ratios = [t.sparse_ratio for t in self.trials if t.sparse_ratio is not None]
        gaps = [t.complete_bound - t.exact_norm_squared for t in self.trials]
        n_dominated = sum(t.domination_satisfied for t in self.trials)
        return {
            "rng": RNG_ALGORITHM,
            "trials": len(self.trials),
            "seed": self.config.seed,
            "graph_mode": self.config.graph_mode,
            "kinds": list(self.config.kinds),
            "violations": list(self.violations),
            "domination_satisfied_trials": n_dominated,
            "max_complete_ratio": max(complete_ratios),
            "max_sparse_ratio": max(sparse_ratios) if sparse_ratios else None,
            "min_gap": min(gaps),
            "mean_gap": sum(gaps) / len(gaps),
            "max_gap": max(gaps),
        }


def run_sweep(config: SweepConfig) -> SweepResult:
    results = []
    for start in range(0, config.trials, SWEEP_CHUNK):
        results.extend(run_trial(config, range(start, min(start + SWEEP_CHUNK, config.trials))))
    return SweepResult(config=config, trials=tuple(results))
