"""Randomized verification sweep.

Each trial draws a random instance (seeded, reproducible) and runs
``build_report`` on it: the bounds, and the exact squared norm by dense
diagonalization up to product dimension 256 (matrix-free Lanczos above).
The exact value is checked against every bound that applies. Any
violation signals an implementation bug, since the inequalities
themselves are proven.

Per-trial seeds are derived from (sweep seed, trial index), so results
are independent of execution order; trials could run concurrently and
the aggregated summary, sorted by index, would be identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import TensorSumInstance, build_report, exceeded_bounds
from .families import ENSEMBLE_KINDS, RNG_ALGORITHM, RandomEnsembleConfig, random_operator
from .graphs import InteractionGraph, complete_graph, random_graph_min_degree_one
from .linalg import DEFAULT_DIM_CAP, check_dim_cap

GRAPH_MODES = ("complete", "random_min_degree_1")


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


def _random_instance(
    rng: np.random.Generator, config: SweepConfig
) -> TensorSumInstance:
    m = int(rng.integers(2, config.max_m + 1))
    dim_h = int(rng.integers(1, config.max_dim + 1))
    dim_k = int(rng.integers(1, config.max_dim + 1))
    weights = rng.uniform(-2.0, 2.0, m)

    def draw(dim: int) -> np.ndarray:
        kind = config.kinds[int(rng.integers(0, len(config.kinds)))]
        seed = int(rng.integers(0, 2 ** 64, dtype=np.uint64))
        return random_operator(RandomEnsembleConfig(seed=seed, dim=dim, kind=kind))

    x = [draw(dim_h) for _ in range(m)]
    y = [draw(dim_k) for _ in range(m)]
    return TensorSumInstance(x, y, weights)


def _trial_graph(
    rng: np.random.Generator, m: int, config: SweepConfig
) -> InteractionGraph:
    if config.graph_mode == "complete":
        return complete_graph(m)
    return random_graph_min_degree_one(m, rng)


def _ratio(exact_sq: float, bound: float) -> float:
    return exact_sq / bound if bound > 0 else 0.0


def run_trial(config: SweepConfig, index: int) -> TrialResult:
    rng = np.random.Generator(np.random.PCG64(trial_seed(config.seed, index)))
    inst = _random_instance(rng, config)
    graph = _trial_graph(rng, inst.m, config)
    check_dim_cap(inst.dim_h, inst.dim_k, config.dim_cap)
    report = build_report(inst, graph, dim_cap=config.dim_cap)
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
    results = [run_trial(config, i) for i in range(config.trials)]
    results.sort(key=lambda t: t.index)
    return SweepResult(config=config, trials=tuple(results))
