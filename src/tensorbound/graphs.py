"""Simple undirected graphs on the index set {1..m}.

Vertices are 1-based everywhere in this module and in reports; the file
format uses 0-based indices and converts at the I/O boundary. Graphs are
immutable after construction and safe to share.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class InteractionGraph:
    """Simple undirected graph on vertices 1..m.

    Edges are stored as a sorted tuple of (i, j) pairs with i < j.
    ``adjacency`` is the read-only symmetric (m, m) 0/1 float matrix,
    0-based (1.0 where an edge joins i+1 and j+1, zero diagonal), and
    ``degrees`` its row sums; both are built once here and are the only
    array form of the graph.
    """

    m: int
    edges: tuple[tuple[int, int], ...]
    adjacency: np.ndarray = field(init=False, repr=False, compare=False)
    degrees: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, m: int, edges=()):
        if m < 1:
            raise ValueError("vertex count m must be positive")
        normalized = set()
        for pair in edges:
            i, j = pair
            try:
                if bool in (type(i), type(j)):
                    raise TypeError
                i, j = operator.index(i), operator.index(j)
            except TypeError:
                raise ValueError(f"edge ({i},{j}): endpoints must be integers") from None
            if i == j:
                raise ValueError(f"self-loop at vertex {i} is not allowed")
            if not (1 <= i <= m and 1 <= j <= m):
                raise ValueError(f"edge ({i},{j}) out of range for m={m}")
            key = (min(i, j), max(i, j))
            if key in normalized:
                raise ValueError(f"duplicate edge ({key[0]},{key[1]})")
            normalized.add(key)
        adjacency = np.zeros((m, m))
        if normalized:
            ends = np.array(list(normalized)) - 1
            adjacency[ends[:, 0], ends[:, 1]] = 1.0
            adjacency[ends[:, 1], ends[:, 0]] = 1.0
        degrees = adjacency.sum(axis=1)
        adjacency.flags.writeable = False
        degrees.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "edges", tuple(sorted(normalized)))
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "degrees", degrees)

    def min_degree(self) -> int:
        return int(self.degrees.min())


def complete_graph(m: int) -> InteractionGraph:
    """All m(m-1)/2 edges present."""
    return InteractionGraph(
        m, [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    )


def star_graph(m: int) -> InteractionGraph:
    """Vertex 1 joined to every other vertex."""
    return InteractionGraph(m, [(1, j) for j in range(2, m + 1)])


def chain_graph(m: int) -> InteractionGraph:
    """Path 1-2-...-m."""
    return InteractionGraph(m, [(i, i + 1) for i in range(1, m)])


def graph_constant(g: InteractionGraph) -> float:
    """Connectivity factor 2(m-1)/delta - 1; equals 1 on complete graphs."""
    delta = g.min_degree()
    if delta == 0:
        isolated = int(np.argmin(g.degrees)) + 1
        raise ValueError(
            f"graph constant undefined: vertex {isolated} is isolated "
            f"(minimum degree must be >= 1)"
        )
    return 2.0 * (g.m - 1) / delta - 1.0


def random_graph_min_degree_one(m: int, rng: np.random.Generator) -> InteractionGraph:
    """Random graph with no isolated vertex: each pair kept with probability
    1/2, then every isolated vertex is wired to a random other vertex."""
    if m < 2:
        raise ValueError("need at least 2 vertices for min degree 1")
    edges = {(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1) if rng.random() < 0.5}
    covered = {v for edge in edges for v in edge}
    for i in range(1, m + 1):
        if i not in covered:
            j = i
            while j == i:
                j = int(rng.integers(1, m + 1))
            edges.add((min(i, j), max(i, j)))
            covered.add(j)
    return InteractionGraph(m, edges)
