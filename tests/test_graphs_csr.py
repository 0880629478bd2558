"""Property-based equivalence suite: CSR kernels vs pure-Python oracles.

Every kernel in :mod:`repro.graphs.csr` must be observationally
equivalent to its oracle in :mod:`repro.graphs.reference` — that
equivalence is what licenses the kernels as the library's only
production path.  The suite sweeps ~100 random graphs across four
shapes (Erdős–Rényi, grids, caterpillars, and disconnected unions) and
checks every primitive (values *and* return types), then runs the LDD
end to end and asserts the paper guarantees (the (C1) deletion bound
and the Lemma 3.2 weak-diameter budget).
"""

import math
import zlib

import numpy as np
import pytest

import repro.obs as obs
from repro.core import LddParams, chang_li_ldd
from repro.decomp.shifts import sample_shifts, shifted_flood
from repro.graphs import (
    Graph,
    caterpillar,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    reference,
)
from repro.graphs.csr import CsrGraph
from repro.local.gather import gather_ball
from repro.mpc import MpcConfig


def _graph_pool():
    """~100 deterministic random graphs over four structural families."""
    pool = []
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 40))
        pool.append((f"er-{seed}", erdos_renyi(n, 0.12, rng)))
        rows = int(rng.integers(2, 7))
        cols = int(rng.integers(2, 7))
        pool.append((f"grid-{seed}", grid_graph(rows, cols)))
        spine = int(rng.integers(3, 12))
        legs = int(rng.integers(1, 4))
        pool.append((f"caterpillar-{seed}", caterpillar(spine, legs)))
        # Disconnected: sparse ER (isolated vertices likely) glued to a
        # far-away cycle via a disjoint union.
        a = erdos_renyi(int(rng.integers(5, 15)), 0.08, rng)
        b = cycle_graph(int(rng.integers(3, 10)))
        pool.append((f"disconnected-{seed}", a.union_disjoint(b)))
    return pool


POOL = _graph_pool()


def _rng(name):
    return np.random.default_rng(zlib.crc32(name.encode()))


def _assert_dist_equal(graph, dist_arr, dist_dict):
    for v in range(graph.n):
        assert dist_arr[v] == dist_dict.get(v, -1)


class TestKernelEquivalence:
    def test_pool_size(self):
        assert len(POOL) == 100

    @pytest.mark.parametrize("name,graph", POOL)
    def test_bfs_distances(self, name, graph):
        rng = _rng(name)
        csr = graph.csr()
        for sources in ([0], [graph.n - 1, 0], sorted(
            rng.choice(graph.n, size=min(3, graph.n), replace=False).tolist()
        )):
            _assert_dist_equal(
                graph, csr.bfs_distances(sources), graph.bfs_distances(sources)
            )
            radius = int(rng.integers(0, 5))
            _assert_dist_equal(
                graph,
                csr.bfs_distances(sources, radius=radius),
                graph.bfs_distances(sources, radius=radius),
            )

    @pytest.mark.parametrize("name,graph", POOL)
    def test_balls_and_gather_layers(self, name, graph):
        rng = _rng(name)
        csr = graph.csr()
        radius = int(rng.integers(1, 6))
        sizes, depths = csr.all_ball_sizes(radius)
        ref_sizes, ref_depths = reference.all_ball_sizes(graph, radius)
        assert sizes.tolist() == ref_sizes
        assert depths.tolist() == ref_depths
        for v in range(graph.n):
            assert sizes[v] == len(graph.ball(v, radius))
        # gather layers must equal the oracle's, including on a
        # residual vertex set
        within = set(rng.choice(graph.n, size=max(1, graph.n // 2), replace=False).tolist())
        center = int(rng.integers(0, graph.n))
        for kwargs in ({}, {"within": within}):
            ref = reference.gather_ball(graph, [center], radius, **kwargs)
            fast = gather_ball(graph, [center], radius, **kwargs)
            assert ref.layers == fast.layers
            assert ref.depth_reached == fast.depth_reached

    @pytest.mark.parametrize("name,graph", POOL[::5])
    def test_weighted_ball_sizes(self, name, graph):
        rng = _rng(name)
        weights = rng.random(graph.n)
        sizes, _ = graph.csr().all_ball_sizes(3, weights=weights)
        ref_sizes, _ = reference.all_ball_sizes(graph, 3, weights=weights)
        assert sizes.tolist() == pytest.approx(ref_sizes)

    @pytest.mark.parametrize("name,graph", POOL)
    def test_power(self, name, graph):
        for k in (1, 2, 3):
            fast = graph.power(k)
            ref = reference.power(graph, k)
            assert fast == ref
            # the trusted bulk constructor must also rebuild identical
            # adjacency tuples, not just the edge set
            assert fast._adj == ref._adj

    @pytest.mark.parametrize("name,graph", POOL)
    def test_connected_components(self, name, graph):
        rng = _rng(name)
        assert graph.connected_components() == reference.connected_components(graph)
        within = set(rng.choice(graph.n, size=max(1, graph.n // 2), replace=False).tolist())
        assert graph.connected_components(
            within=within
        ) == reference.connected_components(graph, within=within)

    @pytest.mark.parametrize("name,graph", POOL)
    def test_weak_diameter(self, name, graph):
        rng = _rng(name)
        for size in (1, max(2, graph.n // 3)):
            subset = rng.choice(graph.n, size=size, replace=False).tolist()
            fast = graph.weak_diameter(subset)
            ref = reference.weak_diameter(graph, subset)
            assert fast == ref
            assert type(fast) is type(ref)

    @pytest.mark.parametrize("name,graph", POOL[::4])
    def test_weak_diameter_chunked(self, monkeypatch, name, graph):
        """A budget of a few distance rows splits the sources into many
        chunks; the reduced maximum (or ``inf``) is unchanged."""
        from repro.graphs import csr as csr_module

        rng = _rng(name + "-chunks")
        csr = graph.csr()
        subsets = [
            list(range(graph.n)),
            rng.choice(graph.n, size=max(2, graph.n // 2), replace=False).tolist(),
        ]
        one_chunk = [csr.weak_diameter(s) for s in subsets]
        monkeypatch.setattr(csr_module, "_GATHER_BUDGET_BYTES", 3 * 8 * graph.n)
        for subset, whole in zip(subsets, one_chunk, strict=True):
            chunked = csr.weak_diameter(subset)
            assert chunked == whole == reference.weak_diameter(graph, subset)
            assert type(chunked) is float

    @pytest.mark.parametrize("name,graph", POOL)
    def test_eccentricity_and_diameters(self, name, graph):
        """Values and return types match the oracle, so JSON rows print
        ``7.0`` on either side, never ``7`` vs ``7.0``."""
        rng = _rng(name)
        v = int(rng.integers(0, graph.n))
        pairs = [
            (graph.eccentricity(v), reference.eccentricity(graph, v)),
            (graph.diameter(), reference.diameter(graph)),
        ]
        subset = rng.choice(graph.n, size=max(2, graph.n // 3), replace=False).tolist()
        sub, _ = graph.induced_subgraph(subset)
        pairs.append((graph.strong_diameter(subset), reference.diameter(sub)))
        for fast, ref in pairs:
            assert fast == ref
            assert type(fast) is type(ref)

    def test_empty_graph_diameter_is_float(self):
        assert Graph(0).diameter() == reference.diameter(Graph(0)) == 0.0
        assert type(Graph(0).diameter()) is type(reference.diameter(Graph(0)))

    @pytest.mark.parametrize("name,graph", POOL[::5])
    def test_distances_from_matrix(self, name, graph):
        sources = list(range(0, graph.n, 3))
        mat = graph.csr().distances_from(sources)
        for row, s in enumerate(sources):
            _assert_dist_equal(graph, mat[row], graph.bfs_distances([s]))

    @pytest.mark.parametrize("chunk_size", [1, 7, 63, 65])
    @pytest.mark.parametrize("name,graph", POOL[7::20])
    def test_multi_chunk_paths(self, name, graph, chunk_size):
        """Small chunk sizes force the lo>0 iterations of every packed
        kernel (word-boundary packing, cross-chunk slice assignment,
        power's cross-chunk edge dedup) that default sizing never hits
        on test-scale graphs."""
        csr = graph.csr()
        sizes, depths = csr.all_ball_sizes(3, chunk_size=chunk_size)
        ref_sizes, ref_depths = csr.all_ball_sizes(3)
        assert sizes.tolist() == ref_sizes.tolist()
        assert depths.tolist() == ref_depths.tolist()
        mat = csr.distances_from(range(graph.n), chunk_size=chunk_size)
        for s in range(0, graph.n, 5):
            _assert_dist_equal(graph, mat[s], graph.bfs_distances([s]))
        chunked_power = csr.power(2, chunk_size=chunk_size)
        ref_power = reference.power(graph, 2)
        assert chunked_power == ref_power
        assert chunked_power._adj == ref_power._adj

    @pytest.mark.parametrize("name,graph", POOL[::3])
    def test_top2_shifted_flood(self, name, graph):
        """The EN communication core: kernel records == heap-flood records."""
        rng = _rng(name)
        lam = float(rng.choice([0.1, 0.5, 1.5]))
        shifts = sample_shifts(graph.n, lam, max(graph.n, 2), seed=int(rng.integers(1 << 20)))
        within_options = [None]
        if graph.n > 4:
            within_options.append(set(range(0, graph.n, 2)))
        for within in within_options:
            ref = shifted_flood(graph, shifts, keep=2, within=within)
            b1v, b1s, b1d, b2v, b2s, b2d = graph.csr().top2_shifted_flood(
                shifts, within=within
            )
            for v in range(graph.n):
                recs = ref[v]
                if recs:
                    assert (b1v[v], b1s[v], b1d[v]) == (
                        recs[0].value,
                        recs[0].source,
                        recs[0].dist,
                    )
                else:
                    assert b1s[v] == -1
                if len(recs) > 1:
                    assert (b2v[v], b2s[v], b2d[v]) == (
                        recs[1].value,
                        recs[1].source,
                        recs[1].dist,
                    )
                else:
                    assert b2s[v] == -1


def _shattered_graph(num_components=10000):
    """A graph shattered into path-3 components (the post-carve shape)."""
    edges_u = []
    edges_v = []
    for c in range(num_components):
        base = 3 * c
        edges_u += [base, base + 1]
        edges_v += [base + 1, base + 2]
    return Graph(3 * num_components, zip(edges_u, edges_v, strict=True))


class TestSaturationShortcut:
    """The whole-graph-radius path: every ball saturates its component.

    The kernel retires sources (packed 64 per word) as soon as their
    frontier empties and must report exactly the sizes and depths of
    the exhaustive sweep — including with a residual mask, weights,
    and any chunking that splits or straddles the retirement words.
    """

    @pytest.mark.parametrize("name,graph", POOL[3::10])
    @pytest.mark.parametrize("radius", [None, 10**6])
    def test_unbounded_radius_equals_python_gather(self, name, graph, radius):
        sizes, depths = graph.csr().all_ball_sizes(radius)
        for v in range(graph.n):
            ref = reference.gather_ball(graph, [v], graph.n + 1)
            assert sizes[v] == len(ref.ball), (name, v)
            assert depths[v] == ref.depth_reached, (name, v)

    @pytest.mark.parametrize("chunk_size", [1, 7, 63, 64, 65, 128])
    @pytest.mark.parametrize("name,graph", POOL[5::25])
    def test_chunking_invariance_at_saturation(self, name, graph, chunk_size):
        ref_sizes, ref_depths = graph.csr().all_ball_sizes(None)
        sizes, depths = graph.csr().all_ball_sizes(None, chunk_size=chunk_size)
        assert sizes.tolist() == ref_sizes.tolist()
        assert depths.tolist() == ref_depths.tolist()

    @pytest.mark.parametrize("name,graph", POOL[9::25])
    def test_residual_mask_saturation(self, name, graph):
        rng = _rng(name + "-sat")
        within = set(
            rng.choice(graph.n, size=max(1, graph.n // 2), replace=False).tolist()
        )
        sizes, depths = graph.csr().all_ball_sizes(None, within=within)
        for v in range(graph.n):
            ref = reference.gather_ball(graph, [v], graph.n + 1, within=within)
            assert sizes[v] == len(ref.ball), (name, v)
            assert depths[v] == ref.depth_reached, (name, v)

    @pytest.mark.parametrize("name,graph", POOL[11::25])
    def test_weighted_saturation(self, name, graph):
        rng = _rng(name + "-wsat")
        weights = rng.random(graph.n)
        sizes, _ = graph.csr().all_ball_sizes(None, weights=weights)
        for v in range(graph.n):
            ball = reference.gather_ball(graph, [v], graph.n + 1).ball
            assert sizes[v] == pytest.approx(sum(weights[u] for u in ball))

    def test_shattered_components_retire_early(self):
        """10^4 path-3 components: every source saturates by depth 2, so
        the packed sweep must harvest component sizes and stop instead
        of grinding a whole-graph radius."""
        graph = _shattered_graph(10000)
        sizes, depths = graph.csr().all_ball_sizes(10**9)
        assert sizes.tolist() == [3.0] * graph.n
        expected_depth = [2, 1, 2] * 10000  # endpoints reach across, middles in 1
        assert depths.tolist() == expected_depth
        # chunk boundaries interleaving many saturated words
        sizes2, depths2 = graph.csr().all_ball_sizes(10**9, chunk_size=100)
        assert sizes2.tolist() == sizes.tolist()
        assert depths2.tolist() == depths.tolist()

    def test_shattered_with_straggler_component(self):
        """One long path among tiny components: the tiny components'
        words retire and drop out of the sweep while the straggler's
        word keeps expanding to its full eccentricity."""
        comps = _shattered_graph(200)
        long_path = Graph(120, [(i, i + 1) for i in range(119)])
        graph = comps.union_disjoint(long_path)
        sizes, depths = graph.csr().all_ball_sizes(None, chunk_size=256)
        assert sizes[: comps.n].tolist() == [3.0] * comps.n
        assert sizes[comps.n :].tolist() == [120.0] * 120
        assert depths[comps.n] == 119  # path endpoint eccentricity
        assert int(depths.max()) == 119

    def test_skewed_degrees_fall_back_to_reduceat(self):
        """A star's padded table would be quadratic; the kernel must
        decline it and stay exact on the segmented-reduceat path."""
        from repro.graphs import star_graph

        graph = star_graph(200)
        assert graph.csr()._padded_adjacency() is None
        sizes, depths = graph.csr().all_ball_sizes(None)
        assert sizes.tolist() == [200.0] * 200
        assert depths.tolist() == [1, *([2] * 199)]

    def test_padded_table_built_for_regular_degrees(self):
        graph = grid_graph(8, 8)
        pad = graph.csr()._padded_adjacency()
        assert pad is not None and pad.shape == (64, 4)
        # phantom slots point at the all-zero row n
        assert (pad[(pad >= 0)] <= graph.n).all()


class TestGirth:
    """CsrGraph.girth vs the per-vertex-BFS oracle, value-identical."""

    @pytest.mark.parametrize("name,graph", POOL[::4])
    def test_matches_reference(self, name, graph):
        fast, ref = graph.girth(), reference.girth(graph)
        assert fast == ref
        assert type(fast) is type(ref)

    @pytest.mark.parametrize("name,graph", POOL[2::10])
    def test_upper_bound_early_exit_matches(self, name, graph):
        for ub in (3, 4, 6, 10):
            assert graph.girth(upper_bound=ub) == reference.girth(
                graph, upper_bound=ub
            ), (name, ub)

    def test_named_graphs(self):
        from repro.graphs.highgirth import mcgee_graph, petersen_graph

        assert petersen_graph().girth() == 5
        assert mcgee_graph().girth() == 7
        assert cycle_graph(9).girth() == 9
        assert grid_graph(3, 4).girth() == 4

    def test_forest_and_edge_cases(self):
        from repro.graphs import random_tree

        assert path_graph(6).girth() == float("inf")
        assert Graph(0).girth() == float("inf")
        assert Graph(5).girth() == float("inf")
        tree = random_tree(40, np.random.default_rng(3))
        assert tree.girth() == reference.girth(tree) == float("inf")


class TestSettledBallSizes:
    """``settled_ball_sizes`` is exact: sizes bit-identical to the full
    sweep (unweighted) and the maximum depth equal to its depths' max,
    whether the eccentricity bounds settle every source or none."""

    @staticmethod
    def _radii(graph):
        # Around the largest component diameter, plus far above it.
        diameter = int(graph.csr().all_ball_sizes()[1].max())
        return sorted({0, 1, max(0, diameter - 1), diameter, diameter + 1, 4 * graph.n})

    @pytest.mark.parametrize("name,graph", POOL)
    def test_matches_sweep_and_oracle(self, name, graph):
        csr = graph.csr()
        for radius in self._radii(graph):
            sizes, max_depth = csr.settled_ball_sizes(radius)
            swept, depths = csr.all_ball_sizes(radius)
            ref_sizes, ref_depths = reference.all_ball_sizes(graph, radius)
            assert np.array_equal(sizes, swept), (name, radius)
            assert sizes.tolist() == ref_sizes, (name, radius)
            assert max_depth == int(depths.max()) == max(ref_depths), (name, radius)
            assert type(max_depth) is int

    def test_disconnected_with_isolated_vertices(self):
        graph = Graph(9, [(0, 1), (1, 2), (2, 3), (5, 6), (6, 7)])
        for radius in (0, 1, 2, 3, 4, 50):
            sizes, max_depth = graph.csr().settled_ball_sizes(radius)
            ref_sizes, ref_depths = reference.all_ball_sizes(graph, radius)
            assert sizes.tolist() == ref_sizes, radius
            assert max_depth == max(ref_depths), radius
        assert Graph(3).csr().settled_ball_sizes(2)[0].tolist() == [1.0] * 3
        sizes, max_depth = Graph(0).csr().settled_ball_sizes(5)
        assert sizes.size == 0 and max_depth == 0

    def test_max_depth_from_settled_component(self):
        """A 250-path sets the deepest ball (settled); some vertices of
        a 400-cycle stay unsettled but are shallower (depth 200)."""
        graph = path_graph(251).union_disjoint(cycle_graph(400))
        with obs.collect() as col:
            sizes, max_depth = graph.csr().settled_ball_sizes(10**4)
        swept, depths = graph.csr().all_ball_sizes(10**4)
        assert col.counter_table()["csr.settle.swept"] > 0
        assert np.array_equal(sizes, swept)
        assert max_depth == int(depths.max()) == 250

    def test_long_path_small_radius_settles_nothing(self, monkeypatch):
        """Every eccentricity exceeds the radius: nothing settles, and
        no pivot BFS runs past ``radius + 1`` levels."""
        graph = path_graph(300)
        csr = graph.csr()
        radius = 3
        levels, bfs_radii = [], []
        pivot_levels, bfs = CsrGraph._pivot_levels, CsrGraph.bfs_distances

        def spy_levels(self, pivots, limit):
            for level, frontier in pivot_levels(self, pivots, limit):
                levels.append(level)
                yield level, frontier

        def spy_bfs(self, sources, radius=None, within=None):
            bfs_radii.append(radius)
            return bfs(self, sources, radius=radius, within=within)

        monkeypatch.setattr(CsrGraph, "_pivot_levels", spy_levels)
        monkeypatch.setattr(CsrGraph, "bfs_distances", spy_bfs)
        with obs.collect() as col:
            sizes, max_depth = csr.settled_ball_sizes(radius)
        swept, depths = csr.all_ball_sizes(radius)
        assert np.array_equal(sizes, swept)
        assert max_depth == int(depths.max()) == radius
        counters = col.counter_table()
        assert counters.get("csr.settle.settled", 0) == 0
        assert counters["csr.settle.swept"] == graph.n
        assert bfs_radii == [radius + 1, radius + 1]
        assert levels and max(levels) <= radius + 1

    @pytest.mark.parametrize("name,graph", POOL[::5])
    def test_weighted(self, name, graph):
        weights = _rng(name + "-settle").random(graph.n) * 3.0
        csr = graph.csr()
        for radius in self._radii(graph):
            sizes, max_depth = csr.settled_ball_sizes(radius, weights=weights)
            swept, depths = csr.all_ball_sizes(radius, weights=weights)
            ref_sizes, _ = reference.all_ball_sizes(graph, radius, weights=weights)
            assert sizes.tolist() == pytest.approx(swept.tolist())
            assert sizes.tolist() == pytest.approx(ref_sizes)
            assert np.array_equal(np.floor(sizes), np.floor(swept)), (name, radius)
            assert max_depth == int(depths.max())

    @pytest.mark.parametrize(
        "graph,settled",
        [(grid_graph(12, 12), 144), (path_graph(1000), 0)],
        ids=["grid-all-settle", "path-none-settle"],
    )
    def test_ldd_local_matches_mpc(self, graph, settled):
        """The local LDD (bounds + partial sweep) and the MPC backend
        (metered full sweep) agree on clusters, deletions and ledger."""
        params = LddParams.practical(0.3, graph.n)
        with obs.collect() as col:
            local = chang_li_ldd(graph, params, seed=4)
        assert col.counter_table().get("csr.settle.settled", 0) == settled
        partitioned = chang_li_ldd(
            graph, params, seed=4, execution_backend="mpc", mpc=MpcConfig(ranks=2)
        )
        assert partitioned.clusters == local.clusters
        assert partitioned.deleted == local.deleted
        assert partitioned.ledger == local.ledger


class TestCsrEdgeCases:
    def test_empty_graph(self):
        g = Graph(0)
        csr = g.csr()
        sizes, depths = csr.all_ball_sizes(3)
        assert len(sizes) == 0 and len(depths) == 0
        assert csr.connected_components() == []

    def test_isolated_vertices(self):
        g = Graph(4, [(0, 1)])
        csr = g.csr()
        sizes, depths = csr.all_ball_sizes(2)
        assert sizes.tolist() == [2, 2, 1, 1]
        assert depths.tolist() == [1, 1, 0, 0]
        assert csr.connected_components() == [{0, 1}, {2}, {3}]

    def test_csr_cache_reused(self):
        g = cycle_graph(6)
        assert g.csr() is g.csr()
        assert isinstance(g.csr(), CsrGraph)

    def test_mask_passthrough(self):
        g = cycle_graph(8)
        mask = np.zeros(8, dtype=bool)
        mask[[0, 1, 2, 5]] = True
        by_mask = g.csr().bfs_distances([0], within=mask)
        by_set = g.csr().bfs_distances([0], within={0, 1, 2, 5})
        assert by_mask.tolist() == by_set.tolist()


def _diameter_budget(params: LddParams) -> float:
    return 2 * (params.t + 2) * params.interval_length + math.ceil(
        8 * math.log(params.ntilde) / params.phase3_lambda
    )


class TestLddEndToEnd:
    """The kernel-driven LDD satisfies Theorem 1.1's guarantees, and its
    clusters are exactly the oracle components of the kept vertices."""

    GRAPHS = (
        ("cycle-150", lambda: cycle_graph(150)),
        ("grid-12x12", lambda: grid_graph(12, 12)),
        ("caterpillar-40x2", lambda: caterpillar(40, 2)),
    )

    @pytest.mark.parametrize("name,make", GRAPHS)
    def test_guarantees_and_agreement(self, name, make):
        eps = 0.3
        for seed in range(3):
            graph = make()
            params = LddParams.practical(eps, graph.n)
            d = chang_li_ldd(graph, params, seed=seed)
            # (C1): the unclustered fraction stays below eps
            assert len(d.deleted) <= eps * graph.n, (name, seed)
            # Lemma 3.2: every cluster within the weak-diameter budget
            budget = _diameter_budget(params)
            for cluster in d.clusters:
                assert reference.weak_diameter(graph, cluster) <= budget
            kept = set(range(graph.n)) - d.deleted
            assert d.clusters == reference.connected_components(graph, kept)
            again = chang_li_ldd(make(), params, seed=seed)
            assert again.deleted == d.deleted, (name, seed)
            assert again.clusters == d.clusters, (name, seed)


class TestSparseEarlyPhase:
    """The sparse-index early phase of ``_ball_chunk`` is a pure
    performance strategy: forcing the switch point to either extreme
    must leave sizes and depths bit-identical."""

    @pytest.mark.parametrize("factor", [0.0, 1.0, float("inf")])
    def test_forced_threshold_bit_identical(self, monkeypatch, factor):
        from repro.graphs import csr as csr_module

        for name, graph in POOL[::5]:
            c = graph.csr()
            rng = _rng(name + "-sparse")
            mask = rng.random(graph.n) < 0.7
            for radius in (None, 1, 3, 10**9):
                monkeypatch.setattr(csr_module, "_SPARSE_COST_FACTOR", float("inf"))
                ref_sizes, ref_depths = c.all_ball_sizes(radius, chunk_size=17)
                ref_m_sizes, ref_m_depths = c.all_ball_sizes(
                    radius, within=mask, chunk_size=17
                )
                monkeypatch.setattr(csr_module, "_SPARSE_COST_FACTOR", factor)
                sizes, depths = c.all_ball_sizes(radius, chunk_size=17)
                m_sizes, m_depths = c.all_ball_sizes(
                    radius, within=mask, chunk_size=17
                )
                assert np.array_equal(ref_sizes, sizes), (name, radius)
                assert np.array_equal(ref_depths, depths), (name, radius)
                assert np.array_equal(ref_m_sizes, m_sizes), (name, radius)
                assert np.array_equal(ref_m_depths, m_depths), (name, radius)

    def test_tiny_threshold_on_consumers(self, monkeypatch):
        """A forced-sparse sweep drives the LDD end to end unchanged."""
        from repro.graphs import csr as csr_module

        graph = grid_graph(12, 12)
        params = LddParams.practical(0.3, graph.n)
        baseline = chang_li_ldd(graph, params, seed=5)
        monkeypatch.setattr(csr_module, "_SPARSE_COST_FACTOR", 0.0)
        forced = chang_li_ldd(graph, params, seed=5)
        assert forced.deleted == baseline.deleted
        assert forced.clusters == baseline.clusters

    def test_weighted_and_sources_with_forced_sparse(self, monkeypatch):
        from repro.graphs import csr as csr_module

        graph = POOL[3][1]
        rng = _rng("sparse-weighted")
        weights = rng.random(graph.n)
        sources = rng.integers(0, graph.n, size=min(graph.n, 11))
        ref = graph.csr().all_ball_sizes(3, weights=weights, sources=sources)
        monkeypatch.setattr(csr_module, "_SPARSE_COST_FACTOR", 0.0)
        forced = graph.csr().all_ball_sizes(3, weights=weights, sources=sources)
        assert np.array_equal(ref[0], forced[0])
        assert np.array_equal(ref[1], forced[1])
