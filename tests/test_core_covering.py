"""Tests for the Theorem 1.3 covering algorithm."""

import numpy as np
import pytest

from repro.core import solve_covering
from repro.graphs import (
    caterpillar,
    cycle_graph,
    erdos_renyi_connected,
    grid_graph,
    hub_and_spokes,
    path_graph,
)
from repro.graphs.metrics import is_dominating_set, is_vertex_cover
from repro.ilp import (
    SolveCache,
    min_dominating_set_ilp,
    min_vertex_cover_ilp,
    set_cover_ilp,
    solve_covering_exact,
)

EPS = 0.3


@pytest.fixture(scope="module")
def shared_cache():
    return SolveCache()


class TestMdsInstances:
    @pytest.mark.parametrize("seed", range(3))
    def test_guarantee_on_er(self, seed, shared_cache):
        g = erdos_renyi_connected(32, 0.1, np.random.default_rng(seed))
        inst = min_dominating_set_ilp(g)
        result = solve_covering(inst, EPS, seed=seed, cache=shared_cache)
        opt = solve_covering_exact(inst, cache=shared_cache).weight
        assert is_dominating_set(g, result.chosen)
        assert result.weight <= (1 + EPS) * opt + 1e-9

    def test_guarantee_on_cycle(self, shared_cache):
        g = cycle_graph(45)
        inst = min_dominating_set_ilp(g)
        opt = 15.0
        for seed in range(4):
            result = solve_covering(inst, EPS, seed=seed, cache=shared_cache)
            assert result.weight <= (1 + EPS) * opt + 1e-9

    def test_hub_and_spokes_does_not_overpay(self, shared_cache):
        """The Section 1.4.3 failure mode: deleting the hub forces all
        its leaves into the dominating set.  The covering algorithm must
        avoid that by never deleting variables."""
        g = hub_and_spokes(4, 6)
        inst = min_dominating_set_ilp(g)
        opt = solve_covering_exact(inst, cache=shared_cache).weight
        for seed in range(4):
            result = solve_covering(inst, EPS, seed=seed, cache=shared_cache)
            assert result.weight <= (1 + EPS) * opt + 1e-9


class TestOtherCoveringProblems:
    def test_vertex_cover(self, shared_cache):
        g = grid_graph(5, 6)
        inst = min_vertex_cover_ilp(g)
        result = solve_covering(inst, EPS, seed=1, cache=shared_cache)
        opt = solve_covering_exact(inst, cache=shared_cache).weight
        assert is_vertex_cover(g, result.chosen)
        assert result.weight <= (1 + EPS) * opt + 1e-9

    def test_weighted_dominating_set(self, shared_cache):
        rng = np.random.default_rng(7)
        g = caterpillar(10, 2)
        weights = [float(w) for w in rng.integers(1, 8, size=g.n)]
        inst = min_dominating_set_ilp(g, weights=weights)
        result = solve_covering(inst, EPS, seed=2, cache=shared_cache)
        opt = solve_covering_exact(inst, cache=shared_cache).weight
        assert inst.is_feasible(result.chosen)
        assert result.weight <= (1 + EPS) * opt + 1e-9

    def test_k_distance_dominating_set(self, shared_cache):
        g = path_graph(40)
        inst = min_dominating_set_ilp(g, k=2)
        result = solve_covering(inst, EPS, seed=3, cache=shared_cache)
        opt = solve_covering_exact(inst, cache=shared_cache).weight
        assert is_dominating_set(g, result.chosen, k=2)
        assert result.weight <= (1 + EPS) * opt + 1e-9

    def test_unsatisfiable_rejected(self):
        inst = set_cover_ilp(1, elements=[[0]])
        bad = inst.restrict(set())  # no variables left
        from repro.ilp import CoveringInstance, Constraint

        unsat = CoveringInstance([1.0], [Constraint({0: 1.0}, 2.0)])
        with pytest.raises(ValueError, match="unsatisfiable"):
            solve_covering(unsat, EPS, seed=0)


class TestDiagnostics:
    def test_result_fields(self, shared_cache):
        g = cycle_graph(40)
        inst = min_dominating_set_ilp(g)
        result = solve_covering(inst, EPS, seed=4, cache=shared_cache)
        assert result.num_prep_clusters > 0
        assert result.num_zones >= 0
        assert result.fixed_weight >= 0
        labels = result.ledger.by_label()
        assert "prep-sparse-cover" in labels

    def test_fixed_variables_subset_of_chosen(self, shared_cache):
        g = cycle_graph(50)
        inst = min_dominating_set_ilp(g)
        result = solve_covering(inst, EPS, seed=5, cache=shared_cache)
        # fixed_weight counts Phase-1 commitments; they are in chosen.
        assert result.fixed_weight <= result.weight + 1e-9

    def test_reproducibility(self, shared_cache):
        g = grid_graph(5, 5)
        inst = min_dominating_set_ilp(g)
        a = solve_covering(inst, EPS, seed=8, cache=shared_cache)
        b = solve_covering(inst, EPS, seed=8, cache=shared_cache)
        assert a.chosen == b.chosen
