"""Tests for the three Grow-and-Carve subroutines, the shared carve
round and the preparation estimates."""

import operator
from functools import partial

import numpy as np

from repro.core.carve import (
    CarveOutcome,
    PrepCluster,
    carve_round,
    estimate_clusters,
    grow_and_carve,
    grow_and_carve_covering,
    grow_and_carve_packing,
    sample_centers,
)
from repro.graphs import cycle_graph, erdos_renyi_connected, grid_graph, path_graph
from repro.ilp import (
    max_independent_set_ilp,
    min_dominating_set_ilp,
    solve_packing_exact,
)
from repro.local.gather import RoundLedger
from repro.util.rng import spawn_rngs


class TestGrowAndCarve:
    def test_deletes_a_single_layer(self):
        g = path_graph(20)
        remaining = set(range(20))
        outcome = grow_and_carve(g, [0], (3, 6), remaining)
        # Layers from 0 on a path are singletons; deleted layer is the
        # first minimal one (index 3), removed ball is N^2.
        assert outcome.deleted == {3}
        assert outcome.removed == {0, 1, 2}
        assert outcome.cut_position == 3

    def test_chooses_sparsest_layer(self):
        # Star-with-path: layer sizes from center: 1, k, 1, 1 ...
        g = path_graph(6).union_disjoint(path_graph(0))
        edges = [*g.edges(), (0, 6), (0, 7), (0, 8)]
        from repro.graphs import Graph

        g2 = Graph(9, edges)
        remaining = set(range(9))
        outcome = grow_and_carve(g2, [0], (1, 2), remaining)
        # layer 1 = {1, 6, 7, 8} (size 4), layer 2 = {2} (size 1).
        assert outcome.deleted == {2}

    def test_weighted_layer_choice(self):
        g = path_graph(6)
        remaining = set(range(6))
        weights = [1, 1, 100, 1, 1, 1]
        outcome = grow_and_carve(g, [0], (2, 3), remaining, weights=weights)
        assert outcome.deleted == {3}  # layer 2 weighs 100

    def test_component_exhausted_before_interval(self):
        g = path_graph(4)
        remaining = set(range(4))
        outcome = grow_and_carve(g, [0], (10, 12), remaining)
        assert outcome.removed == {0, 1, 2, 3}
        assert outcome.deleted == set()

    def test_respects_remaining(self):
        g = path_graph(10)
        remaining = {0, 1, 2, 3}
        outcome = grow_and_carve(g, [0], (2, 3), remaining)
        assert outcome.removed | outcome.deleted <= remaining


class TestGrowAndCarvePacking:
    def test_deletes_middle_layer_of_window(self):
        g = path_graph(30)
        inst = max_independent_set_ilp(g)
        remaining = set(range(30))
        outcome = grow_and_carve_packing(
            inst, g, [0], (4, 9), remaining
        )
        # Windows start at j ≡ 4 (mod 3): j = 4 or 7; middle layer j+1.
        assert outcome.cut_position in (4, 7)
        assert outcome.deleted == {outcome.cut_position + 1}
        assert outcome.removed == set(range(outcome.cut_position + 1))

    def test_zone_isolated_after_deletion(self):
        """Removed ∪ deleted separates the zone from the rest."""
        rng = np.random.default_rng(5)
        g = erdos_renyi_connected(40, 0.07, rng)
        inst = max_independent_set_ilp(g)
        remaining = set(range(40))
        outcome = grow_and_carve_packing(inst, g, [0], (4, 9), remaining)
        rest = remaining - outcome.removed - outcome.deleted
        for u in outcome.removed:
            for w in g.neighbors(u):
                assert w not in rest or w in outcome.deleted

    def test_early_exhaustion(self):
        g = cycle_graph(6)
        inst = max_independent_set_ilp(g)
        outcome = grow_and_carve_packing(
            inst, g, [0], (7, 12), set(range(6))
        )
        assert outcome.removed == set(range(6))
        assert outcome.deleted == set()


class TestGrowAndCarveCovering:
    def test_fixes_pair_and_removes_inner(self):
        g = path_graph(30)
        inst = min_dominating_set_ilp(g)
        remaining = set(range(30))
        outcome = grow_and_carve_covering(
            inst, g, [0], (3, 8), remaining, fixed_ones=set()
        )
        j = outcome.cut_position
        assert j % 2 == 1
        assert 3 <= j <= 7
        assert outcome.removed == set(range(j + 1))
        assert outcome.deleted == set()
        # Fixed variables lie in the pair S_j ∪ S_{j+1} = {j, j+1}.
        assert outcome.fixed_ones <= {j, j + 1}

    def test_crossing_constraints_satisfied(self):
        """Every constraint crossing the removal boundary is satisfied
        by the fixed assignment — the Algorithm 7 invariant.  Layers
        must be measured in the hypergraph's *primal* graph (constraint
        supports are cliques there, not in the base graph)."""
        rng = np.random.default_rng(8)
        for trial in range(5):
            g = erdos_renyi_connected(35, 0.08, rng)
            inst = min_dominating_set_ilp(g)
            primal = inst.hypergraph().primal_graph()
            remaining = set(range(g.n))
            outcome = grow_and_carve_covering(
                inst, primal, [trial], (3, 8), remaining, fixed_ones=set()
            )
            if not outcome.removed or outcome.removed == remaining:
                continue
            rest = remaining - outcome.removed
            loads = inst.row_loads(outcome.fixed_ones)
            for j, support in enumerate(inst.hypergraph().edges()):
                if support & outcome.removed and support & rest:
                    assert loads[j] >= inst.bounds[j] - 1e-9

    def test_whole_component_removed_when_small(self):
        g = cycle_graph(5)
        inst = min_dominating_set_ilp(g)
        outcome = grow_and_carve_covering(
            inst, g, [0], (4, 9), set(range(5)), fixed_ones=set()
        )
        assert outcome.removed == set(range(5))
        assert outcome.fixed_ones == set()


def _outcome(removed=(), deleted=(), fixed_ones=(), depth=0):
    return CarveOutcome(
        removed=set(removed),
        deleted=set(deleted),
        fixed_ones=set(fixed_ones),
        cut_position=depth,
        depth=depth,
    )


class _ScriptedCarve:
    """A carve whose outcome is looked up by its (cut) seed set."""

    def __init__(self, outcomes):
        self.outcomes = outcomes
        self.calls = []

    def __call__(self, seeds, interval, snapshot):
        self.calls.append((frozenset(seeds), interval, snapshot))
        return self.outcomes[frozenset(seeds)]


class TestCarveRound:
    def test_stale_seed_sets_skipped_and_not_counted(self):
        """Regression: the executed count used to include centers whose
        carve was skipped because they were already carved away (E12
        reports overstated work)."""
        g = path_graph(8)
        remaining = {0, 1, 2, 3, 4}  # 5..7 already carved away
        merged = carve_round(
            g,
            [[0], [6], [7]],  # one live seed set, two stale ones
            (1, 2),
            remaining,
            partial(grow_and_carve, g),
            RoundLedger(),
            "test",
        )
        assert merged.executed == 1

    def test_seed_sets_cut_to_remaining(self):
        g = path_graph(8)
        carve = _ScriptedCarve({frozenset({1}): _outcome(removed={1})})
        merged = carve_round(
            g, [{1, 6}, {6, 7}], (1, 2), set(range(5)), carve, RoundLedger(), "t"
        )
        assert [call[0] for call in carve.calls] == [frozenset({1})]
        assert merged.executed == 1

    def test_deleted_wins_over_removed(self):
        """Two overlapping carves: each deletes what the other removes."""
        g = path_graph(10)
        carve = _ScriptedCarve(
            {
                frozenset({0}): _outcome(removed={0, 1, 2, 3}, deleted={4}),
                frozenset({9}): _outcome(removed={4, 5, 9}, deleted={3}),
            }
        )
        merged = carve_round(
            g, [[0], [9]], (1, 4), set(range(10)), carve, RoundLedger(), "t"
        )
        assert merged.deleted == {3, 4}
        assert merged.removed == {0, 1, 2, 5, 9}
        assert merged.executed == 2

    def test_fixed_ones_unioned(self):
        g = path_graph(10)
        carve = _ScriptedCarve(
            {
                frozenset({0}): _outcome(removed={0, 1}, fixed_ones={1}),
                frozenset({9}): _outcome(removed={8, 9}, fixed_ones={8, 1}),
            }
        )
        merged = carve_round(
            g, [[0], [9]], (1, 4), set(range(10)), carve, RoundLedger(), "t"
        )
        assert merged.fixed_ones == {1, 8}
        assert merged.deleted == set()

    def test_remaining_updated_in_place_after_one_snapshot(self):
        g = path_graph(10)
        remaining = set(range(10))
        before = set(remaining)
        carve = _ScriptedCarve(
            {
                frozenset({0}): _outcome(removed={0, 1}, deleted={2}),
                frozenset({9}): _outcome(removed={9}, deleted={8}),
            }
        )
        carve_round(g, [[0], [9]], (1, 4), remaining, carve, RoundLedger(), "t")
        assert remaining == {3, 4, 5, 6, 7}
        # Both carves saw the same mask of the residual before the round.
        snapshots = [call[2] for call in carve.calls]
        assert snapshots[0] is snapshots[1]
        assert np.flatnonzero(snapshots[0]).tolist() == sorted(before)

    def test_ledger_charges_twice_b_and_twice_max_depth(self):
        g = path_graph(10)
        carve = _ScriptedCarve(
            {
                frozenset({0}): _outcome(removed={0}, depth=3),
                frozenset({9}): _outcome(removed={9}, depth=5),
            }
        )
        ledger = RoundLedger()
        carve_round(g, [[0], [9]], (2, 7), set(range(10)), carve, ledger, "lbl")
        assert [(c.label, c.nominal, c.effective) for c in ledger.charges] == [
            ("lbl", 14, 10)
        ]

    def test_no_live_seed_set_charges_zero_depth(self):
        g = path_graph(6)
        remaining = {0, 1}
        ledger = RoundLedger()
        carve = _ScriptedCarve({})
        merged = carve_round(g, [[4], [5]], (1, 3), remaining, carve, ledger, "t")
        assert merged.executed == 0
        assert carve.calls == []
        assert remaining == {0, 1}
        assert [(c.nominal, c.effective) for c in ledger.charges] == [(6, 0)]


class TestEstimateClusters:
    def test_matches_direct_exact_solves(self):
        g = grid_graph(4, 4)
        inst = max_independent_set_ilp(g, [2.0**v for v in range(16)])
        clusters = [{0, 1}, {5}, {10, 11, 14}]
        ledger = RoundLedger()
        prepared = estimate_clusters(
            g,
            clusters,
            1,
            lambda vertices: solve_packing_exact(inst, subset=vertices).weight,
            ledger,
        )
        assert [p.vertices for p in prepared] == [frozenset(c) for c in clusters]
        for cluster, prep in zip(clusters, prepared, strict=True):
            neighborhood = g.ball_of_set(cluster, 1)
            assert prep.weight_self == solve_packing_exact(inst, subset=cluster).weight
            assert (
                prep.weight_neighborhood
                == solve_packing_exact(inst, subset=neighborhood).weight
            )
        assert [(c.label, c.nominal, c.effective) for c in ledger.charges] == [
            ("prep-estimates", 2, 2)
        ]


class TestSampleCenters:
    def test_each_cluster_draws_once_in_index_order(self):
        # probability = weight_self / weight_neighborhood: 0.5, 0, 0.5.
        clusters = [
            PrepCluster(frozenset({0}), 1.0, 2.0),
            PrepCluster(frozenset({2, 3}), 0.0, 2.0),
            PrepCluster(frozenset({5}), 2.0, 4.0),
        ]
        rngs = spawn_rngs(4, 3)
        twins = spawn_rngs(4, 3)
        for _ in range(3):
            # Cluster 1 is never kept, yet its stream still advances.
            draws = [twin.random() for twin in twins]
            expected = [
                cluster.vertices
                for cluster, draw in zip(clusters, draws, strict=True)
                if draw < cluster.weight_self / cluster.weight_neighborhood
            ]
            assert sample_centers(clusters, rngs, operator.truediv) == expected
        assert [rng.random() for rng in rngs] == [twin.random() for twin in twins]
