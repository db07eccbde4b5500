import random

import pytest

from obsrep.graphs import (
    Graph,
    GraphError,
    all_graphs,
    complete_graph,
    cycle_graph,
    gnp_half,
)


def test_edges_are_normalized():
    g = Graph.of(4, [(2, 0), (3, 1), (1, 3)])
    assert g.sorted_edges() == [(0, 2), (1, 3)]
    assert g.edges == {(0, 2), (1, 3)}
    assert g.non_edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_constructor_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph.of(3, [(1, 1)])
    with pytest.raises(GraphError):
        Graph.of(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph.of(3, [(-1, 2)])
    with pytest.raises(GraphError):
        Graph(-1)
    # malformed edge containers, once bare TypeErrors and ValueErrors
    for edges in (frozenset({(0, 1, 2)}), [5], 7):
        with pytest.raises(GraphError, match="pairs of ints"):
            Graph(3, edges)
    # Graph.of once raised bare TypeErrors for these
    for pairs in ([5], 7, None):
        with pytest.raises(GraphError, match="pairs of ints"):
            Graph.of(3, pairs)


@pytest.mark.parametrize("n", [2.5, True, "3"])
def test_constructor_rejects_a_vertex_count_that_is_not_an_int(n):
    with pytest.raises(GraphError):
        Graph(n)


@pytest.mark.parametrize("edge", [(0.5, 1), (0, 1.0), ("0", 1), (True, 2)])
def test_constructor_rejects_an_endpoint_that_is_not_an_int(edge):
    # (0.5, 1) was once kept as an edge, and non_edges() then still listed (0, 1).
    with pytest.raises(GraphError, match="not an int"):
        Graph(3, frozenset({edge}))


def test_non_edges_sorted_and_complementary():
    g = cycle_graph(4)
    assert g.non_edges() == [(0, 2), (1, 3)]
    assert sorted(list(g.edges) + g.non_edges()) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]


def test_is_complete():
    assert complete_graph(5).is_complete
    assert Graph(0).is_complete
    assert Graph(1).is_complete
    assert not cycle_graph(4).is_complete


def test_without_edge():
    g = complete_graph(3).without_edge(2, 1)
    assert g.sorted_edges() == [(0, 1), (0, 2)]
    with pytest.raises(GraphError):
        g.without_edge(1, 2)


def test_cycle_graph():
    assert cycle_graph(5).sorted_edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    with pytest.raises(GraphError):
        cycle_graph(2)


def test_gnp_half_is_seed_deterministic():
    a = gnp_half(8, random.Random(99))
    b = gnp_half(8, random.Random(99))
    c = gnp_half(8, random.Random(100))
    assert a == b
    assert a != c  # two seeds agreeing on all 28 flips would be suspicious


def test_all_graphs_counts_and_order():
    graphs = list(all_graphs(3))
    assert len(graphs) == 8  # 2 ** C(3, 2)
    assert graphs[0] == Graph(3)
    assert graphs[-1] == complete_graph(3)
    assert len(list(all_graphs(4))) == 64
    assert len({g.edges for g in all_graphs(4)}) == 64
    with pytest.raises(GraphError):
        next(all_graphs(6))
