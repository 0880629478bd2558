"""Corner-case coverage across modules: the paths regressions hide in."""

import pytest

from repro.core import solve_covering, solve_packing
from repro.decomp import elkin_neiman_ldd, sparse_cover
from repro.graphs import Graph, Hypergraph, complete_graph, path_graph
from repro.ilp import (
    Constraint,
    CoveringInstance,
    PackingInstance,
    lp_relaxation_value,
    max_independent_set_ilp,
    solve_covering_exact,
    solve_packing_exact,
)


class TestDegenerateInstances:
    def test_packing_with_no_constraints(self):
        inst = PackingInstance([1.0, 2.0, 3.0], [])
        sol = solve_packing_exact(inst)
        assert sol.weight == 6.0
        assert sol.chosen == frozenset({0, 1, 2})

    def test_packing_all_zero_weights(self):
        g = path_graph(4)
        inst = max_independent_set_ilp(g, weights=[0.0] * 4)
        assert solve_packing_exact(inst).weight == 0.0

    def test_covering_with_no_constraints(self):
        inst = CoveringInstance([1.0, 1.0], [])
        sol = solve_covering_exact(inst)
        assert sol.weight == 0.0
        assert sol.chosen == frozenset()

    def test_covering_trivially_satisfied_bound(self):
        inst = CoveringInstance([1.0], [Constraint({0: 1.0}, 0.0)])
        assert solve_covering_exact(inst).weight == 0.0

    def test_fractional_bounds(self):
        # b = 0.5 with coefficient 1: forced selection for covering,
        # free selection for packing.
        cov = CoveringInstance([1.0], [Constraint({0: 1.0}, 0.5)])
        assert solve_covering_exact(cov).chosen == frozenset({0})
        pack = PackingInstance([1.0], [Constraint({0: 1.0}, 0.5)])
        assert solve_packing_exact(pack).chosen == frozenset()

    def test_lp_on_empty_constraints(self):
        inst = PackingInstance([1.0, 1.0], [])
        assert lp_relaxation_value(inst) == pytest.approx(2.0)


class TestSingletonAndDisconnected:
    def test_single_vertex_graph(self):
        g = Graph(1, [])
        d = elkin_neiman_ldd(g, 0.5, seed=0)
        assert d.clusters == [{0}]
        assert not d.deleted

    def test_algorithms_on_disconnected_graphs(self):
        g = path_graph(4).union_disjoint(path_graph(3))
        inst = max_independent_set_ilp(g)
        result = solve_packing(inst, 0.4, seed=1)
        opt = solve_packing_exact(inst).weight
        assert result.weight >= 0.6 * opt - 1e-9

    def test_covering_on_disconnected_graphs(self):
        from repro.ilp import min_dominating_set_ilp

        g = path_graph(5).union_disjoint(path_graph(4))
        inst = min_dominating_set_ilp(g)
        result = solve_covering(inst, 0.4, seed=2)
        opt = solve_covering_exact(inst).weight
        assert result.weight <= 1.4 * opt + 1e-9

    def test_sparse_cover_isolated_vertices(self):
        h = Hypergraph(5, [{0, 1}])  # vertices 2-4 in no hyperedge
        cover = sparse_cover(h, 0.3, seed=3)
        covered = set().union(*cover.clusters) if cover.clusters else set()
        assert {0, 1} <= covered


class TestTinyEpsilonHandling:
    def test_params_reject_out_of_range(self):
        from repro.core import LddParams

        for bad in (-0.1, 0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                LddParams.practical(bad, 50)

    def test_large_eps_still_valid(self):
        g = complete_graph(12)
        inst = max_independent_set_ilp(g)
        result = solve_packing(inst, 0.9, seed=4)
        assert inst.is_feasible(result.chosen)

    def test_small_eps_on_tiny_graph(self):
        g = path_graph(6)
        inst = max_independent_set_ilp(g)
        result = solve_packing(inst, 0.05, seed=5)
        # eps below 1/opt forces the exact optimum.
        assert result.weight == solve_packing_exact(inst).weight


class TestWeightEdgeCases:
    def test_float_weights_accepted(self):
        g = path_graph(4)
        inst = max_independent_set_ilp(g, weights=[0.5, 1.25, 2.0, 0.75])
        sol = solve_packing_exact(inst)
        # Independent sets of the path: best is {0, 2} = 0.5 + 2.0.
        assert sol.weight == pytest.approx(2.5)
        assert sol.chosen == frozenset({0, 2})

    def test_negative_weight_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            max_independent_set_ilp(g, weights=[1, -1, 1])

    def test_constraint_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            PackingInstance([1.0], [Constraint({0: -1.0}, 1.0)])
