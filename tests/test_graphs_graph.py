"""Unit and property tests for the Graph data structure."""


import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, cycle_graph, grid_graph, path_graph, reference


def edges_strategy(max_n=12):
    return st.integers(3, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=3 * n,
            ),
        )
    )


class TestConstruction:
    def test_empty(self):
        g = Graph(0)
        assert g.n == 0
        assert g.m == 0
        assert g.diameter() == 0

    def test_dedup_and_symmetry(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1
        assert g.neighbors(0) == (1,)
        assert g.neighbors(1) == (0,)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_from_edges_infers_n(self):
        g = Graph.from_edges([(0, 5)])
        assert g.n == 6

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        assert a == b
        assert hash(a) == hash(b)

    def test_union_disjoint(self):
        g = path_graph(3).union_disjoint(path_graph(2))
        assert g.n == 5
        assert g.m == 3
        assert g.has_edge(3, 4)
        assert not g.has_edge(2, 3)


class TestBfs:
    def test_distances_on_path(self):
        g = path_graph(5)
        dist = g.bfs_distances([0])
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_truncated_radius(self):
        g = path_graph(10)
        assert set(g.bfs_distances([0], radius=3)) == {0, 1, 2, 3}

    def test_multi_source(self):
        g = path_graph(7)
        dist = g.bfs_distances([0, 6])
        assert dist[3] == 3
        assert dist[1] == 1
        assert dist[5] == 1

    def test_ball_and_layers(self):
        g = cycle_graph(8)
        assert g.ball(0, 1) == {7, 0, 1}
        layers = g.bfs_layers([0], radius=2)
        assert layers[0] == {0}
        assert layers[1] == {1, 7}
        assert layers[2] == {2, 6}

    def test_distance_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.distance(0, 3) == float("inf")
        assert g.eccentricity(0) == float("inf")
        assert g.diameter() == float("inf")


class TestStructure:
    def test_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = sorted(map(sorted, g.connected_components()))
        assert comps == [[0, 1], [2, 3], [4]]

    def test_components_within(self):
        g = path_graph(5)
        comps = sorted(map(sorted, g.connected_components(within={0, 1, 3, 4})))
        assert comps == [[0, 1], [3, 4]]

    def test_induced_subgraph(self):
        g = cycle_graph(6)
        sub, mapping = g.induced_subgraph([0, 1, 2])
        assert sub.n == 3
        assert sub.m == 2
        assert mapping[0] == 0

    def test_power_graph(self):
        g = path_graph(5)
        p2 = g.power(2)
        assert p2.has_edge(0, 2)
        assert not p2.has_edge(0, 3)
        assert p2.m == 4 + 3

    def test_weak_vs_strong_diameter(self):
        g = cycle_graph(8)
        subset = {0, 4}
        assert g.weak_diameter(subset) == 4
        assert g.strong_diameter(subset) == float("inf")

    def test_girth(self):
        assert cycle_graph(7).girth() == 7
        assert path_graph(5).girth() == float("inf")
        assert grid_graph(3, 3).girth() == 4

    def test_bipartite(self):
        assert grid_graph(3, 4).is_bipartite()
        assert cycle_graph(6).is_bipartite()
        assert not cycle_graph(5).is_bipartite()

    def test_regular(self):
        assert cycle_graph(5).is_regular()
        assert not path_graph(3).is_regular()


class TestNetworkxParity:
    @settings(max_examples=30, deadline=None)
    @given(edges_strategy())
    def test_distances_match_networkx(self, data):
        n, edges = data
        g = Graph(n, edges)
        nxg = g.to_networkx()
        for source in range(0, n, max(1, n // 3)):
            ours = g.bfs_distances([source])
            theirs = nx.single_source_shortest_path_length(nxg, source)
            assert ours == dict(theirs)

    @settings(max_examples=30, deadline=None)
    @given(edges_strategy())
    def test_components_match_networkx(self, data):
        n, edges = data
        g = Graph(n, edges)
        ours = sorted(sorted(c) for c in g.connected_components())
        theirs = sorted(
            sorted(c) for c in nx.connected_components(g.to_networkx())
        )
        assert ours == theirs

    @settings(max_examples=20, deadline=None)
    @given(edges_strategy(10))
    def test_girth_matches_networkx(self, data):
        n, edges = data
        g = Graph(n, edges)
        nxg = g.to_networkx()
        try:
            expected = nx.girth(nxg)
        except Exception:  # pragma: no cover - very old networkx
            pytest.skip("nx.girth unavailable")
        assert g.girth() == expected

    def test_round_trip(self):
        g = grid_graph(4, 4)
        assert Graph.from_networkx(g.to_networkx()) == g


class TestFromNetworkxRelabelling:
    def test_noncontiguous_integer_labels_sort_numerically(self):
        """Regression: labels were sorted by repr, so ``10 < 2 < 30``
        and a path ``2-10-30`` imported with the wrong vertex in the
        middle.  Integer labels must relabel in numeric order."""
        nxg = nx.Graph()
        nxg.add_edges_from([(2, 10), (10, 30)])
        g = Graph.from_networkx(nxg)
        # numeric order: 2 -> 0, 10 -> 1, 30 -> 2; the center is vertex 1
        assert g.edges() == ((0, 1), (1, 2))
        assert [g.degree(v) for v in range(3)] == [1, 2, 1]

    def test_path_does_not_become_star(self):
        """A longer path with repr-disordered labels (100 < 20 < 3 by
        repr) keeps its path structure *and* its numeric vertex order."""
        labels = [3, 20, 100, 1000]
        nxg = nx.Graph()
        nxg.add_edges_from(itertools.pairwise(labels))
        g = Graph.from_networkx(nxg)
        assert g.edges() == ((0, 1), (1, 2), (2, 3))
        assert g.to_networkx().degree(0) == 1

    def test_contiguous_labels_map_to_themselves(self):
        nxg = nx.Graph()
        nxg.add_nodes_from([3, 1, 0, 2])
        nxg.add_edge(3, 0)
        g = Graph.from_networkx(nxg)
        assert g.has_edge(0, 3)

    def test_string_labels_fall_back_to_repr_order(self):
        nxg = nx.Graph()
        nxg.add_edges_from([("b", "a"), ("b", "c")])
        g = Graph.from_networkx(nxg)
        assert g.n == 3
        assert [g.degree(v) for v in range(3)] == [1, 2, 1]


class TestDiameterBackends:
    """Graph.diameter/eccentricity on the CSR kernel vs the python BFS
    oracles of repro.graphs.reference (values and return types)."""

    CASES = (
        Graph(0, []),
        Graph(1, []),
        Graph(2, []),
        Graph(5, [(0, 1), (1, 2), (3, 4)]),
        Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    )

    def test_diameter_matches_python(self):
        import numpy as np

        from repro.graphs import grid_graph, random_tree

        graphs = [
            *self.CASES,
            grid_graph(5, 6),
            random_tree(30, np.random.default_rng(1)),
        ]
        for graph in graphs:
            fast, ref = graph.diameter(), reference.diameter(graph)
            assert fast == ref, graph
            assert type(fast) is type(ref), graph

    def test_eccentricity_matches_python(self):
        for graph in self.CASES:
            for v in range(graph.n):
                fast = graph.eccentricity(v)
                ref = reference.eccentricity(graph, v)
                assert fast == ref, (graph, v)
                assert type(fast) is type(ref), (graph, v)

    def test_strong_diameter_backend(self):
        from repro.graphs import grid_graph

        graph = grid_graph(4, 4)
        subset = [0, 1, 2, 5, 6]
        sub, _ = graph.induced_subgraph(subset)
        assert graph.strong_diameter(subset) == reference.diameter(sub) == 3.0

    def test_csr_eccentricities_batch(self):
        import numpy as np

        from repro.graphs import grid_graph

        graph = grid_graph(4, 5)
        ecc = graph.csr().eccentricities()
        assert ecc.shape == (20,)
        assert [graph.eccentricity(v) for v in range(graph.n)] == ecc.tolist()
        disconnected = Graph(3, [(0, 1)])
        assert np.isinf(disconnected.csr().eccentricities()).all()
