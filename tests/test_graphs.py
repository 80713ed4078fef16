import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorbound import (
    InteractionGraph,
    IsolatedVertexError,
    TensorSumInstance,
    chain_graph,
    check_domination,
    complete_graph,
    graph_constant,
    load_instance,
    random_graph_min_degree_one,
    save_instance,
    star_graph,
)


def non_edge_pairs(g):
    """The 1-based non-edges check_domination compares, in its order."""
    ones = [np.eye(1)] * g.m
    return tuple(c.pair for c in check_domination(TensorSumInstance(ones, ones), g).checks)


def missing_pairs(g):
    """The zero upper-triangle entries of the adjacency, 1-based."""
    return tuple(map(tuple, (np.argwhere(np.triu(g.adjacency == 0, 1)) + 1).tolist()))


class TestConstruction:
    def test_complete_three(self):
        g = complete_graph(3)
        assert g.edges == ((1, 2), (1, 3), (2, 3))
        assert g.min_degree() == 2

    def test_complete_one_vertex(self):
        g = complete_graph(1)
        assert g.edges == ()
        assert g.min_degree() == 0

    def test_complete_four_edge_count(self):
        assert len(complete_graph(4).edges) == 6

    def test_edges_normalized_and_sorted(self):
        g = InteractionGraph(4, [(3, 1), (2, 4)])
        assert g.edges == ((1, 3), (2, 4))
        assert g.adjacency[0, 2] == g.adjacency[2, 0] == 1.0
        assert g.adjacency[1, 3] == g.adjacency[3, 1] == 1.0
        assert g.adjacency.sum() == 4.0

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            InteractionGraph(3, [(2, 2)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            InteractionGraph(3, [(1, 2), (2, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            InteractionGraph(3, [(1, 4)])
        with pytest.raises(ValueError, match="out of range"):
            InteractionGraph(3, [(0, 1)])

    def test_neighbors_and_degree(self):
        g = star_graph(4)
        expected = np.zeros((4, 4))
        expected[0, 1:] = expected[1:, 0] = 1.0
        assert g.adjacency.dtype == np.float64
        np.testing.assert_array_equal(g.adjacency, expected)
        np.testing.assert_array_equal(g.degrees, [3.0, 1.0, 1.0, 1.0])
        assert g.min_degree() == 1

    def test_empty_graph_arrays(self):
        g = InteractionGraph(3)
        np.testing.assert_array_equal(g.adjacency, np.zeros((3, 3)))
        np.testing.assert_array_equal(g.degrees, np.zeros(3))

    def test_arrays_are_read_only(self):
        g = star_graph(4)
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 0.0
        with pytest.raises(ValueError):
            g.degrees[0] = 0.0

    def test_equality_and_hash_ignore_edge_order(self):
        a, b = InteractionGraph(3, [(2, 1)]), InteractionGraph(3, [(1, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != InteractionGraph(3, [(1, 3)])
        assert a != InteractionGraph(4, [(1, 2)])


class TestEndpoints:
    def test_numpy_endpoints_become_ints(self):
        g = InteractionGraph(3, np.array([[1, 2], [2, 3]]))
        assert g.edges == ((1, 2), (2, 3))
        assert all(type(v) is int for pair in g.edges for v in pair)

    def test_numpy_edges_round_trip_through_a_file(self, tmp_path):
        g = InteractionGraph(3, np.array([[1, 2], [2, 3]]))
        ones = [np.eye(1)] * 3
        path = tmp_path / "inst.json"
        save_instance(path, TensorSumInstance(ones, ones), g)
        _, loaded = load_instance(path)
        assert loaded == g

    @pytest.mark.parametrize("edge", [(1.0, 2), (1, 2.5), (1, "2"), (True, 2), (1, np.True_)])
    def test_rejects_non_integer_endpoint(self, edge):
        with pytest.raises(ValueError, match=r"edge \(.*\): endpoints must be integers"):
            InteractionGraph(3, [(1, 3), edge])


class TestGraphConstant:
    def test_complete_is_one(self):
        assert graph_constant(complete_graph(3)) == 1.0

    @pytest.mark.parametrize("m", range(2, 51))
    def test_complete_is_one_exactly(self, m):
        assert graph_constant(complete_graph(m)) == 1.0

    @pytest.mark.parametrize("m", range(2, 51))
    def test_star_is_2m_minus_3(self, m):
        assert graph_constant(star_graph(m)) == float(2 * m - 3)

    def test_star_five(self):
        assert graph_constant(star_graph(5)) == 7.0

    def test_six_cycle(self):
        cycle = InteractionGraph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
        assert graph_constant(cycle) == 4.0

    def test_isolated_vertex_named(self):
        g = InteractionGraph(3, [(1, 2)])
        with pytest.raises(IsolatedVertexError, match="vertex 3"):
            graph_constant(g)
        with pytest.raises(IsolatedVertexError, match="vertex 2 is isolated"):
            graph_constant(InteractionGraph(4, [(1, 4)]))

    def test_single_vertex_is_degenerate(self):
        with pytest.raises(IsolatedVertexError):
            graph_constant(complete_graph(1))


class TestNonEdges:
    def test_complete_has_none(self):
        assert non_edge_pairs(complete_graph(4)) == ()

    def test_single_edge_on_three(self):
        g = InteractionGraph(3, [(1, 2)])
        assert non_edge_pairs(g) == ((1, 3), (2, 3))

    def test_empty_graph_two(self):
        assert non_edge_pairs(InteractionGraph(2)) == ((1, 2),)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_partition_of_all_pairs(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))
        g = random_graph_min_degree_one(m, rng)
        pairs = non_edge_pairs(g)
        assert pairs == missing_pairs(g)
        assert len(g.edges) + len(pairs) == m * (m - 1) // 2
        everything = {(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)}
        assert set(g.edges) | set(pairs) == everything


class TestMonotonicity:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_adding_an_edge_never_increases_constant(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 9))
        g = random_graph_min_degree_one(m, rng)
        missing = missing_pairs(g)
        if not missing:
            return
        extra = missing[int(rng.integers(0, len(missing)))]
        g2 = InteractionGraph(m, list(g.edges) + [extra])
        assert graph_constant(g2) <= graph_constant(g)


class TestRandomGraph:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_min_degree_at_least_one(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 10))
        g = random_graph_min_degree_one(m, rng)
        assert g.min_degree() >= 1
        np.testing.assert_array_equal(g.degrees, g.adjacency.sum(axis=1))

    def test_deterministic_given_rng_state(self):
        g1 = random_graph_min_degree_one(6, np.random.default_rng(5))
        g2 = random_graph_min_degree_one(6, np.random.default_rng(5))
        assert g1.edges == g2.edges
