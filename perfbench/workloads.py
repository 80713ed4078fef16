"""Seeded workload definitions: the instances each workload writes and the
CLI operations it runs on them.

Everything here is plain numpy and independent of tensorbound, so the
harness can regenerate the exact inputs a worker wrote and compute
reference values from them. The same (workload, seed, scale) always gives
the same instances and the same operation cycle.

A cycle is the fixed list of operations a run repeats; runs always execute
whole cycles, so the mix of operations in a run never depends on timing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep-small", "exact-dense", "wide-files")
SCALES = ("full", "tiny")

# Default product-dimension cap of the CLI. wide-files instances sit just
# above it at full scale; at tiny scale the ops pass a lower cap explicitly.
CLI_DIM_CAP = 4096
TINY_DIM_CAP = 16


@dataclass(frozen=True)
class InstanceSpec:
    """One generated instance: Hermitian contractions x_i, y_i, real weights,
    and an optional graph given as 0-based edges."""

    name: str
    x: tuple[np.ndarray, ...]
    y: tuple[np.ndarray, ...]
    weights: np.ndarray
    edges: tuple[tuple[int, int], ...] | None = None

    @property
    def m(self) -> int:
        return len(self.x)

    @property
    def filename(self) -> str:
        return f"{self.name}.json"


@dataclass(frozen=True)
class Op:
    """One CLI invocation. ``key`` is unique within a cycle; ``target`` names
    the instance, golden demo or sweep seed the check needs."""

    key: str
    argv: tuple[str, ...]
    command: str
    fmt: str
    target: str


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))


def _gaussian(rng: np.random.Generator, d: int) -> np.ndarray:
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)


def random_contraction(rng: np.random.Generator, d: int) -> np.ndarray:
    """Hermitian matrix with spectral norm drawn uniformly from [0.5, 1)."""
    g = _gaussian(rng, d)
    h = (g + g.conj().T) / 2.0
    return h * (rng.uniform(0.5, 1.0) / np.abs(np.linalg.eigvalsh(h)).max())


def random_involution(rng: np.random.Generator, d: int) -> np.ndarray:
    """Hermitian unitary Q diag(+-1) Q*, symmetrized to exact hermiticity."""
    q, _ = np.linalg.qr(_gaussian(rng, d))
    a = (q * rng.choice([-1.0, 1.0], d)) @ q.conj().T
    return (a + a.conj().T) / 2.0


def _operators(rng: np.random.Generator, m: int, d: int) -> tuple[np.ndarray, ...]:
    """m operators of dimension d, each a contraction or an involution."""
    return tuple(
        random_involution(rng, d) if rng.random() < 0.5 else random_contraction(rng, d)
        for _ in range(m)
    )


def complete_edges(m: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(m) for j in range(i + 1, m))


def star_edges(m: int) -> tuple[tuple[int, int], ...]:
    return tuple((0, j) for j in range(1, m))


def random_edges(rng: np.random.Generator, m: int) -> tuple[tuple[int, int], ...]:
    """Each pair kept with probability 1/2, then isolated vertices are wired
    to a random other vertex, so the minimum degree is at least 1."""
    edges = {e for e in complete_edges(m) if rng.random() < 0.5}
    for i in range(m):
        if not any(i in e for e in edges):
            j = int(rng.choice([k for k in range(m) if k != i]))
            edges.add((min(i, j), max(i, j)))
    return tuple(sorted(edges))


def _spec(rng, name: str, m: int, dim_h: int, dim_k: int, edges=None) -> InstanceSpec:
    return InstanceSpec(
        name=name,
        x=_operators(rng, m, dim_h),
        y=_operators(rng, m, dim_k),
        weights=rng.uniform(-1.5, 1.5, m),
        edges=edges,
    )


# (name, m, dim_h, dim_k) per scale. Product dimensions 1024, 1024 and 2048.
_DENSE = {
    "full": (("dense-a", 10, 32, 32), ("dense-b", 10, 16, 64), ("dense-c", 8, 32, 64)),
    "tiny": (("dense-a", 3, 4, 4), ("dense-b", 4, 2, 8), ("dense-c", 3, 4, 8)),
}
_DEMO_M = {"full": 10, "tiny": 4}
DEMO_DIR = "demo"  # where exact-dense's `demo` operations write, under the work directory

# m and operator dimensions of the wide-files instances; 48 * 96 = 4608 is
# just above the CLI's default cap, so the exact spectrum is skipped.
_WIDE = {"full": (12, 48, 96), "tiny": (5, 4, 5)}

_SWEEP = {"full": (96, 10), "tiny": (2, 2)}  # (batches per cycle, trials per batch)


def instances(workload: str, seed: int, scale: str) -> tuple[InstanceSpec, ...]:
    """The generated instances a workload writes during set-up."""
    rng = _rng(seed, workload)
    if workload == "exact-dense":
        return tuple(_spec(rng, *row) for row in _DENSE[scale])
    if workload == "wide-files":
        m, dh, dk = _WIDE[scale]
        return (
            _spec(rng, "wide-complete", m, dh, dk, complete_edges(m)),
            _spec(rng, "wide-star", m, dh, dk, star_edges(m)),
            _spec(rng, "wide-random", m, dh, dk, random_edges(rng, m)),
        )
    return ()


def goldens(root: Path) -> dict[str, dict]:
    """The demo goldens the sweep-small workload checks against, by stem."""
    return {
        p.stem: json.loads(p.read_text(encoding="utf-8"))
        for p in sorted((root / "tests" / "golden").glob("*.json"))
    }


def golden_filename(golden: dict) -> str:
    """Where set-up writes the demo behind a golden (``demo --dir``)."""
    if golden["demo"] == "counterexample":
        return "counterexample.json"
    if golden["m_arg"] is None:
        return f"demo-{golden['demo']}.json"
    return f"demo-{golden['demo']}-{golden['m_arg']}.json"


def golden_has_graph(golden: dict) -> bool:
    return "domination" in golden["report"]


def supplied_beta(spec: InstanceSpec) -> float:
    """Observed value passed to ``certify --beta`` on wide-files instances."""
    return round(1.2 * float(np.sqrt(np.sum(spec.weights ** 2))), 6)


def sweep_seeds(seed: int, scale: str) -> list[int]:
    batches, _ = _SWEEP[scale]
    return [int(s) for s in _rng(seed, "sweep-small").integers(0, 2 ** 32, batches)]


def _fmt(i: int) -> str:
    return ("text", "json")[i % 2]


def _op(key, command, fmt, target, *args, global_args=()) -> Op:
    argv = (*global_args, command, *args, "--output", fmt)
    return Op(key=key, argv=argv, command=command, fmt=fmt, target=target)


def cycle(workload: str, seed: int, scale: str, work: Path, root: Path) -> tuple[Op, ...]:
    """The operations of one cycle, in execution order."""
    if workload == "sweep-small":
        return _sweep_cycle(seed, scale, work, root)
    if workload == "exact-dense":
        return _dense_cycle(seed, scale, work)
    if workload == "wide-files":
        return _wide_cycle(seed, scale, work)
    raise ValueError(f"unknown workload {workload!r}")


def _sweep_cycle(seed, scale, work, root) -> tuple[Op, ...]:
    _, trials = _SWEEP[scale]
    sweeps = [
        _op(f"sweep:{s}", "sweep", "json", str(s), "--trials", str(trials), "--seed", str(s))
        for s in sweep_seeds(seed, scale)
    ]
    demo_ops = []
    for i, (stem, g) in enumerate(goldens(root).items()):
        path = str(work / golden_filename(g))
        demo_ops.append(_op(f"bound:{stem}", "bound", _fmt(i), stem, path))
        demo_ops.append(_op(f"certify:{stem}", "certify", _fmt(i + 1), stem, path))
        if golden_has_graph(g):
            demo_ops.append(_op(f"check-domination:{stem}", "check-domination", _fmt(i), stem, path))
    # Spread the demo operations evenly between the sweep batches.
    ops = []
    n_s, n_d = len(sweeps), len(demo_ops)
    for k, sweep in enumerate(sweeps):
        ops.append(sweep)
        ops.extend(demo_ops[k * n_d // n_s:(k + 1) * n_d // n_s])
    return tuple(ops)


def _dense_cycle(seed, scale, work) -> tuple[Op, ...]:
    a, b, c = instances("exact-dense", seed, scale)
    m = str(_DEMO_M[scale])
    demo_dir = str(work / DEMO_DIR)
    commands = ("exact", "bound", "certify")
    ops = []
    # Three rounds over the 1024-dimensional instances and the demos, each
    # followed by one operation on the 2048-dimensional instance.
    for r in range(3):
        for spec in (a, b):
            for i, cmd in enumerate(commands):
                ops.append(_op(f"{cmd}:{spec.name}:{r}", cmd, _fmt(i + r), spec.name,
                               str(work / spec.filename)))
        for i, demo in enumerate(("star", "chain")):
            ops.append(_op(f"demo:{demo}:{r}", "demo", _fmt(i + r), f"demo-{demo}-{m}",
                           demo, "--m", m, "--dir", demo_dir))
        cmd = commands[r]
        ops.append(_op(f"{cmd}:{c.name}", cmd, _fmt(r), c.name, str(work / c.filename)))
    return tuple(ops)


def _wide_cycle(seed, scale, work) -> tuple[Op, ...]:
    """Each command twice per instance, once per output format."""
    global_args = () if scale == "full" else ("--dim-cap", str(TINY_DIM_CAP))
    ops = []
    for spec in instances("wide-files", seed, scale):
        path = str(work / spec.filename)
        for fmt in ("text", "json"):
            ops.append(_op(f"bound:{spec.name}:{fmt}", "bound", fmt, spec.name, path,
                           global_args=global_args))
            ops.append(_op(f"check-domination:{spec.name}:{fmt}", "check-domination", fmt,
                           spec.name, path, global_args=global_args))
            ops.append(_op(f"certify:{spec.name}:{fmt}", "certify", fmt, spec.name, path,
                           "--beta", repr(supplied_beta(spec)), global_args=global_args))
    return tuple(ops)


def dim_cap(scale: str, workload: str) -> int:
    """The cap the workload's operations run under."""
    return TINY_DIM_CAP if (scale == "tiny" and workload == "wide-files") else CLI_DIM_CAP
