"""Tests for the Theorem 1.1 low-diameter decomposition."""

import math

import numpy as np
import pytest

from repro.core import LddParams, chang_li_ldd, low_diameter_decomposition
from repro.core.ldd import LddTrace
from repro.decomp.quality import run_ldd_trials
from repro.graphs import (
    caterpillar,
    cycle_graph,
    erdos_renyi_connected,
    grid_graph,
    path_graph,
    random_tree,
)
from repro.graphs.metrics import validate_partition


class TestPartitionValidity:
    @pytest.mark.parametrize("seed", range(4))
    def test_valid_partition(self, seed):
        g = grid_graph(8, 8)
        d = low_diameter_decomposition(g, eps=0.3, seed=seed)
        validate_partition(g, d.clusters, d.deleted)

    def test_all_graph_families(self):
        rng = np.random.default_rng(0)
        graphs = [
            cycle_graph(60),
            grid_graph(7, 9),
            random_tree(50, rng),
            erdos_renyi_connected(40, 0.08, rng),
            caterpillar(12, 3),
        ]
        for i, g in enumerate(graphs):
            d = low_diameter_decomposition(g, eps=0.25, seed=i)
            validate_partition(g, d.clusters, d.deleted)


class TestGuarantees:
    def test_unclustered_fraction_small_across_trials(self):
        """The Theorem 1.1 guarantee at practical scale: the max
        unclustered fraction over many seeds stays at most eps."""
        eps = 0.3
        g = cycle_graph(80)
        series = run_ldd_trials(
            g,
            lambda s: low_diameter_decomposition(g, eps=eps, seed=s),
            trials=20,
        )
        assert series.max_fraction <= eps
        assert series.failure_rate(eps) == 0.0

    def test_diameter_budget(self):
        """Weak diameter O(t²R) (Lemma 3.2 bound: 2(t+2)R before the
        refinement; we check the explicit formula)."""
        eps = 0.3
        ntilde = 100
        params = LddParams.practical(eps, ntilde)
        budget = 2 * (params.t + 2) * params.interval_length + math.ceil(
            8 * math.log(ntilde) / params.phase3_lambda
        )
        g = cycle_graph(100)
        for seed in range(5):
            d = chang_li_ldd(g, params, seed=seed)
            for cluster in d.clusters:
                assert g.weak_diameter(cluster) <= budget

    def test_rounds_ledger_structure(self):
        g = grid_graph(6, 6)
        params = LddParams.practical(0.3, 36)
        d = chang_li_ldd(g, params, seed=1)
        labels = d.ledger.by_label()
        assert "estimate-nv" in labels
        assert any(k.startswith("phase1-iter") for k in labels)
        assert d.ledger.effective_rounds <= d.ledger.nominal_rounds

    def test_trace_diagnostics(self):
        g = cycle_graph(60)
        params = LddParams.practical(0.3, 60)
        trace = LddTrace()
        chang_li_ldd(g, params, seed=2, trace=trace)
        assert len(trace.centers_per_iteration) in (params.t, params.t + 1)
        assert trace.residual_after_phase2 >= 0


class TestWeightedVariant:
    def test_weighted_deletions_respect_weight(self):
        """With all the weight on a few vertices, the weighted LDD
        avoids deleting them (Section 4 alternative-approach substrate)."""
        g = cycle_graph(80)
        heavy = {0, 20, 40, 60}
        weights = [100.0 if v in heavy else 1.0 for v in range(g.n)]
        eps = 0.3
        params = LddParams.practical(eps, g.n)
        total = sum(weights)
        for seed in range(8):
            d = chang_li_ldd(g, params, seed=seed, weights=weights)
            deleted_weight = sum(weights[v] for v in d.deleted)
            assert deleted_weight <= eps * total

    def test_weights_validated(self):
        g = cycle_graph(10)
        params = LddParams.practical(0.3, 10)
        with pytest.raises(ValueError):
            chang_li_ldd(g, params, weights=[1.0] * 5)


class TestAblation:
    def test_skip_phase2_still_partitions(self):
        """E12 ablation hook: skipping Phase 2 must stay *correct*
        (partition validity) — only the w.h.p. tail degrades."""
        g = grid_graph(7, 7)
        params = LddParams.practical(0.3, 49)
        d = chang_li_ldd(g, params, seed=3, skip_phase2=True)
        validate_partition(g, d.clusters, d.deleted)


class TestProfiles:
    def test_paper_profile_constructible(self):
        """Paper constants on a tiny graph: everything lands in one
        cluster (radii exceed the diameter) but the run must be valid."""
        g = path_graph(12)
        d = low_diameter_decomposition(g, eps=0.4, seed=0, profile="paper")
        validate_partition(g, d.clusters, d.deleted)
        assert d.unclustered_fraction(g.n) <= 0.4

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            low_diameter_decomposition(cycle_graph(10), 0.3, profile="magic")


class TestTraceCountsExecutedCarves:
    def test_stale_centers_not_counted(self):
        """Regression: ``centers_per_iteration`` used to record the
        sampled-center count even when a center had already been carved
        away and its carve skipped (E12 reports overstated work)."""
        from repro.core.ldd import _apply_carves
        from repro.local.gather import RoundLedger

        g = path_graph(8)
        remaining = {0, 1, 2, 3, 4}  # 5..7 already carved away
        trace = LddTrace()
        _apply_carves(
            g,
            [0, 6, 7],  # one live center, two stale ones
            (1, 2),
            remaining,
            set(),
            RoundLedger(),
            "test",
            None,
            trace,
        )
        assert trace.centers_per_iteration == [1]

    def test_executed_counts_per_iteration(self):
        g = cycle_graph(120)
        params = LddParams.practical(0.2, 120)
        trace = LddTrace()
        chang_li_ldd(g, params, seed=5, trace=trace)
        assert all(c >= 0 for c in trace.centers_per_iteration)
        assert len(trace.centers_per_iteration) == params.t + 1


class TestLazyRngRegression:
    """The lazy per-vertex streams must reproduce the historical eager
    ``spawn_rngs(seed, 2n + 4)`` decomposition bit for bit."""

    @staticmethod
    def _graphs():
        rng = np.random.default_rng(11)
        shattered_edges = [(3 * c + j, 3 * c + j + 1) for c in range(40) for j in range(2)]
        from repro.graphs.graph import Graph
        from repro.graphs import random_regular

        return [
            ("grid", grid_graph(9, 9)),
            ("regular", random_regular(90, 3, rng)),
            ("shattered", Graph(120, shattered_edges)),
        ]

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_partition_identical_to_eager_streams(self, seed, monkeypatch):
        """A/B: run once with LazyRngStreams, once with the seed-state
        eager implementation injected in its place."""
        import repro.core.ldd as ldd_module
        from repro.util.rng import spawn_rngs

        for name, graph in self._graphs():
            params = LddParams.practical(0.3, graph.n)
            lazy = chang_li_ldd(graph, params, seed=seed)
            monkeypatch.setattr(
                ldd_module, "LazyRngStreams", lambda s, count: spawn_rngs(s, count)
            )
            eager = chang_li_ldd(graph, params, seed=seed)
            monkeypatch.undo()
            assert lazy.deleted == eager.deleted, (name, seed)
            assert lazy.clusters == eager.clusters, (name, seed)

    def test_generator_seed_consumes_identically(self):
        """A Generator seed draws one integer in both implementations,
        so downstream consumers of the same generator stay aligned."""
        from repro.util.rng import LazyRngStreams, spawn_rngs

        g1, g2 = np.random.default_rng(9), np.random.default_rng(9)
        eager = spawn_rngs(g1, 12)
        lazy = LazyRngStreams(g2, 12)
        assert g1.bit_generator.state == g2.bit_generator.state
        for i in (11, 0, 5, 5):
            assert eager[i].random() == lazy[i].random()

    def test_lazy_stream_bounds_and_independence_of_access_order(self):
        from repro.util.rng import LazyRngStreams, spawn_rngs

        eager = [r.random() for r in spawn_rngs(31337, 20)]
        forward = LazyRngStreams(31337, 20)
        backward = LazyRngStreams(31337, 20)
        assert [forward[i].random() for i in range(20)] == eager
        assert [backward[i].random() for i in reversed(range(20))] == eager[::-1]
        with pytest.raises(IndexError):
            forward[20]
        with pytest.raises(IndexError):
            forward[-1]
        with pytest.raises(ValueError):
            LazyRngStreams(0, -1)
        assert len(forward) == 20
