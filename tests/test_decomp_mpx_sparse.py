"""Tests for MPX decomposition and the Lemma C.2/C.3 sparse cover."""

import math

import numpy as np
import pytest

from repro.analysis import empirical_dominates_geometric
from repro.decomp import (
    expected_cut_fraction_bound,
    geometric_domination_pvalue,
    mpx_decomposition,
    solve_covering_by_sparse_cover,
    sparse_cover,
    verify_edge_coverage,
)
from repro.graphs import (
    cycle_graph,
    erdos_renyi_connected,
    grid_graph,
    path_graph,
)
from repro.ilp import (
    min_dominating_set_ilp,
    min_vertex_cover_ilp,
    set_cover_ilp,
    solve_covering_exact,
)


class TestMpx:
    def test_partition_covers_everything(self):
        g = grid_graph(6, 6)
        d = mpx_decomposition(g, 0.3, seed=0)
        assert sum(len(c) for c in d.clusters) == g.n
        assert not (set().union(*d.clusters) ^ set(range(g.n)))

    def test_cut_edges_consistent_with_owner(self):
        g = grid_graph(5, 5)
        d = mpx_decomposition(g, 0.3, seed=1)
        for u, v in g.edges():
            crossing = d.owner[u] != d.owner[v]
            assert ((u, v) in d.cut_edges) == crossing

    def test_expected_cut_fraction(self):
        """Mean cut fraction across seeds stays near the O(λ) bound."""
        g = cycle_graph(60)
        lam = 0.2
        fractions = [
            mpx_decomposition(g, lam, seed=s).cut_fraction(g)
            for s in range(30)
        ]
        mean = sum(fractions) / len(fractions)
        assert mean <= 2.5 * expected_cut_fraction_bound(lam)

    def test_cluster_diameter(self):
        g = grid_graph(7, 7)
        lam = 0.4
        ntilde = 49
        bound = 8 * math.log(ntilde) / lam
        d = mpx_decomposition(g, lam, ntilde=ntilde, seed=2)
        for cluster in d.clusters:
            assert g.weak_diameter(cluster) <= bound


class TestSparseCover:
    def _mds_hypergraph(self, g):
        return min_dominating_set_ilp(g).hypergraph()

    def test_every_hyperedge_covered(self):
        """Lemma C.2's coverage guarantee, across seeds and graphs."""
        for seed in range(6):
            g = erdos_renyi_connected(30, 0.1, np.random.default_rng(seed))
            h = self._mds_hypergraph(g)
            cover = sparse_cover(h, 0.3, seed=seed)
            assert verify_edge_coverage(h, cover) == []

    def test_multiplicity_geometric_domination(self):
        """Lemma C.2: X_v ⪯ Geometric(e^{-λ}) (+ ñ^{-2} slack)."""
        lam = 0.25
        g = grid_graph(7, 7)
        h = self._mds_hypergraph(g)
        samples = []
        for seed in range(25):
            cover = sparse_cover(h, lam, seed=seed)
            samples.extend(cover.multiplicity(g.n))
        assert empirical_dominates_geometric(
            samples, math.exp(-lam), slack=0.05
        )
        assert geometric_domination_pvalue(samples, lam) <= 1.3

    def test_cluster_weak_diameter(self):
        lam = 0.4
        ntilde = 36
        g = grid_graph(6, 6)
        h = self._mds_hypergraph(g)
        cover = sparse_cover(h, lam, ntilde=ntilde, seed=3)
        bound = 8 * math.log(ntilde) / lam
        primal = h.primal_graph()
        for cluster in cover.clusters:
            assert primal.weak_diameter(cluster) <= bound

    def test_within_restriction(self):
        g = path_graph(10)
        h = self._mds_hypergraph(g)
        within = set(range(5))
        cover = sparse_cover(h, 0.3, seed=4, within=within)
        for cluster in cover.clusters:
            assert cluster <= within


class TestCoveringBySparseCover:
    def test_mds_feasible_and_near_optimal(self):
        g = grid_graph(5, 5)
        inst = min_dominating_set_ilp(g)
        opt = solve_covering_exact(inst).weight
        for seed in range(5):
            chosen, cover = solve_covering_by_sparse_cover(
                inst, math.log(1 + 0.2 / 5), seed=seed
            )
            assert inst.is_feasible(chosen)
            # Lemma C.3 weight bound: sum X_v Q*(v) w_v; with tiny λ the
            # multiplicities are ~1 so the solution is near optimal.
            assert inst.weight(chosen) <= 1.6 * opt

    def test_weight_bound_lemma_c3(self):
        """W(sol) <= Σ_v X_v · Q*(v) · w_v, verified per run."""
        g = erdos_renyi_connected(24, 0.12, np.random.default_rng(9))
        inst = min_vertex_cover_ilp(g)
        qstar = solve_covering_exact(inst).chosen
        for seed in range(5):
            chosen, cover = solve_covering_by_sparse_cover(
                inst, 0.15, seed=seed
            )
            mult = cover.multiplicity(inst.n)
            bound = sum(mult[v] * inst.weights[v] for v in qstar)
            assert inst.weight(chosen) <= bound + 1e-9

    def test_set_cover_instance(self):
        inst = set_cover_ilp(
            5,
            elements=[[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]],
        )
        chosen, _ = solve_covering_by_sparse_cover(inst, 0.2, seed=1)
        assert inst.is_feasible(chosen)

    def test_fixed_ones_reduce_work(self):
        g = path_graph(8)
        inst = min_dominating_set_ilp(g)
        fixed = {1, 4}
        chosen, _ = solve_covering_by_sparse_cover(
            inst,
            0.2,
            seed=2,
            fixed_ones=fixed,
            edge_indices=[
                j
                for j, con in enumerate(inst.constraints)
                if con.value(fixed) < con.bound
            ],
        )
        assert inst.is_feasible(chosen | fixed)
        assert not (chosen & fixed)


class TestFloodOracle:
    """The CSR-kernel decompositions vs the heap-flood oracle
    (:func:`repro.decomp.shifts.shifted_flood`) on shared shifts."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("lam", [0.1, 0.3, 1.0])
    def test_mpx_matches_flood_oracle(self, seed, lam):
        from repro.decomp import sample_shifts, shifted_flood

        rng = np.random.default_rng(seed)
        graphs = [
            erdos_renyi_connected(28, 0.1, rng),
            grid_graph(5, 6),
            cycle_graph(24),
        ]
        for g in graphs:
            shifts = sample_shifts(g.n, lam, max(g.n, 2), seed=seed)
            records = shifted_flood(g, shifts, keep=1)
            owner = {v: records[v][0].source for v in range(g.n)}
            fast = mpx_decomposition(g, lam, shifts=shifts)
            assert fast.owner == owner
            assert fast.centers == sorted(set(owner.values()))
            assert fast.cut_edges == [
                (u, v) for u, v in g.edges() if owner[u] != owner[v]
            ]

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("lam", [0.1, 0.5])
    def test_elkin_neiman_matches_flood_oracle(self, seed, lam):
        from repro.decomp import (
            elkin_neiman_ldd,
            en_is_deleted,
            sample_shifts,
            shifted_flood,
        )

        g = erdos_renyi_connected(30, 0.1, np.random.default_rng(50 + seed))
        shifts = sample_shifts(g.n, lam, max(g.n, 2), seed=seed)
        for within in (None, set(range(0, g.n, 2))):
            records = shifted_flood(g, shifts, keep=2, within=within)
            vertices = sorted(within) if within is not None else range(g.n)
            deleted = {v for v in vertices if en_is_deleted(records[v])}
            members = {}
            for v in vertices:
                if v not in deleted:
                    members.setdefault(records[v][0].source, set()).add(v)
            fast = elkin_neiman_ldd(g, lam, shifts=shifts, within=within)
            assert fast.deleted == deleted
            assert fast.centers == sorted(members)
            assert fast.clusters == [members[c] for c in sorted(members)]

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("lam", [0.05, 0.2, 0.7])
    def test_sparse_cover_matches_flood_oracle(self, seed, lam):
        from repro.decomp import sample_shifts, shifted_flood, within_one_sources

        rng = np.random.default_rng(100 + seed)
        inst = min_dominating_set_ilp(erdos_renyi_connected(26, 0.12, rng))
        hg = inst.hypergraph()
        g = hg.primal_graph()
        shifts = sample_shifts(g.n, lam, max(g.n, 2), seed=seed)
        within_options = [None, set(range(0, g.n, 2)), set(range(g.n // 2))]
        for within in within_options:
            records = shifted_flood(g, shifts, keep=None, within=within)
            vertices = sorted(within) if within is not None else range(g.n)
            members = {}
            for v in vertices:
                for rec in within_one_sources(records[v]):
                    members.setdefault(rec.source, set()).add(v)
            fast = sparse_cover(hg, lam, shifts=shifts, within=within)
            assert fast.centers == sorted(members), (seed, lam, within)
            assert fast.clusters == [members[c] for c in sorted(members)]
