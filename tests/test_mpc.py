"""Rank-determinism property suite for the partitioned backend.

The contract under test (ISSUE 8, mirroring the kernel-worker suite in
``test_graphs_parallel.py``): every partitioned driver produces
**bit-identical** output to the single-box kernels for ranks in
{1, 2, 4, 8} — under both layouts, with radius caps, residual masks,
source subsets and forced tiny partitions (empty shards) — and the
per-round metering tables are bit-reproducible across repeat runs and
across transports.  Weighted ball sizes are the documented exception:
identical across *rank counts*, allclose vs the serial harvest (float
summation order differs; same caveat as the csr/python parity).
"""

import numpy as np
import pytest

from repro.core import LddParams, chang_li_ldd
from repro.graphs.generators import (
    grid_graph,
    hub_and_spokes,
    random_regular,
)
from repro.graphs.graph import Graph
from repro.mpc import (
    EXECUTION_BACKENDS,
    MpcConfig,
    check_execution_backend,
    partition_graph,
)


def _graphs():
    rng = np.random.default_rng(7)
    shattered = Graph(
        90, [*((3 * i, 3 * i + 1) for i in range(30)), (1, 2), (4, 5)]
    )
    return [
        ("grid", grid_graph(14, 17)),
        ("regular", random_regular(240, 3, rng)),
        ("skewed", hub_and_spokes(4, 30)),
        ("shattered", shattered),
    ]


GRAPHS = _graphs()
RANKS = [1, 2, 4, 8]
LAYOUTS = ["contiguous", "hash"]


def _bytes(arrays):
    return tuple(np.ascontiguousarray(a).tobytes() for a in arrays)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("label,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
class TestPartitionInvariants:
    def test_ownership_covers_disjointly_and_remaps_exactly(
        self, label, graph, layout
    ):
        csr = graph.csr()
        part = partition_graph(csr, ranks=4, layout=layout)
        seen = np.zeros(graph.n, dtype=np.int64)
        for shard in part.shards:
            k = shard.kernel
            seen[k.owned] += 1
            assert np.array_equal(part.owner[k.owned], np.full(k.n_owned, shard.rank))
            # The remapped rows are the same CSR rows, neighbor order
            # preserved — the property the bit-identity rests on.
            assert np.array_equal(
                k.local_to_global[k.indices], csr._neighbors_of(k.owned)
            )
            assert np.array_equal(np.diff(k.indptr), csr.degrees[k.owned])
        assert np.array_equal(seen, np.ones(graph.n, dtype=np.int64))

    def test_partition_is_bit_reproducible(self, label, graph, layout):
        csr = graph.csr()
        a = partition_graph(csr, ranks=4, layout=layout)
        b = partition_graph(csr, ranks=4, layout=layout)
        assert a.owner.tobytes() == b.owner.tobytes()
        for sa, sb in zip(a.shards, b.shards, strict=True):
            assert sa.kernel.owned.tobytes() == sb.kernel.owned.tobytes()
            assert sa.kernel.indices.tobytes() == sb.kernel.indices.tobytes()
            assert sorted(sa.send_to) == sorted(sb.send_to)
            for dst in sa.send_to:
                assert np.array_equal(sa.send_to[dst], sb.send_to[dst])


class TestBudgetSearch:
    def test_memory_budget_drives_a_doubling_search(self):
        csr = grid_graph(14, 17).csr()
        one = partition_graph(csr, ranks=1)
        budget = one.max_rank_storage_bytes // 3
        part = partition_graph(csr, memory_budget=budget)
        assert part.ranks > 1 and part.ranks & (part.ranks - 1) == 0
        assert part.fits_budget
        assert part.memory_budget == budget

    def test_default_budget_is_the_measured_footprint(self):
        csr = grid_graph(6, 6).csr()
        part = partition_graph(csr, ranks=2)
        assert part.memory_budget == part.max_rank_storage_bytes
        assert part.fits_budget


@pytest.mark.parametrize("ranks", RANKS)
@pytest.mark.parametrize("label,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
class TestBallSizeBitIdentity:
    def test_all_ball_sizes_matches_serial(self, label, graph, ranks):
        csr = graph.csr()
        rng = np.random.default_rng(1)
        mask = rng.random(graph.n) < 0.8
        sources = list(range(0, graph.n, 3))
        for layout in LAYOUTS:
            run = MpcConfig(ranks=ranks, layout=layout).start(csr)
            for kwargs in (
                dict(radius=None, chunk_size=13),
                dict(radius=3, chunk_size=13),
                dict(radius=5, within=mask, chunk_size=7),
                dict(radius=None, sources=sources, chunk_size=29),
                dict(radius=4, within=mask, sources=sources, chunk_size=1),
            ):
                serial = csr.all_ball_sizes(kernel_workers=1, **kwargs)
                sharded = run.all_ball_sizes(**kwargs)
                assert _bytes(serial) == _bytes(sharded), (layout, kwargs)
            run.close()

    def test_weighted_sizes_allclose_and_rank_invariant(
        self, label, graph, ranks
    ):
        csr = graph.csr()
        weights = np.random.default_rng(2).random(graph.n)
        serial = csr.all_ball_sizes(None, weights=weights, chunk_size=17)
        run = MpcConfig(ranks=ranks).start(csr)
        sharded = run.all_ball_sizes(weights=weights, chunk_size=17)
        # Depths are integers: exact.  Weighted sizes: allclose vs the
        # serial retirement-group harvest, bit-identical across ranks
        # (the reassembled-matrix harvest is rank-count-invariant).
        assert serial[1].tobytes() == sharded[1].tobytes()
        assert np.allclose(serial[0], sharded[0], rtol=0, atol=1e-9)
        baseline = (
            MpcConfig(ranks=1).start(csr).all_ball_sizes(weights=weights, chunk_size=17)
        )
        assert _bytes(baseline) == _bytes(sharded)
        run.close()


@pytest.mark.parametrize("ranks", RANKS)
@pytest.mark.parametrize("label,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
class TestBfsBitIdentity:
    def test_bfs_distances_matches_serial(self, label, graph, ranks):
        csr = graph.csr()
        rng = np.random.default_rng(3)
        mask = rng.random(graph.n) < 0.7
        sources = [0, 1, graph.n // 2, graph.n - 1]
        for layout in LAYOUTS:
            run = MpcConfig(ranks=ranks, layout=layout).start(csr)
            for kwargs in (
                dict(),
                dict(radius=2),
                dict(within=mask),
                dict(radius=4, within=mask),
            ):
                serial = csr.bfs_distances(sources, **kwargs)
                sharded = run.bfs_distances(sources, **kwargs)
                assert serial.tobytes() == sharded.tobytes(), (layout, kwargs)
            run.close()


class TestMeterDeterminism:
    def test_round_table_reproducible_across_repeat_runs(self):
        csr = grid_graph(14, 17).csr()
        tables = []
        for _ in range(2):
            run = MpcConfig(ranks=4).start(csr)
            run.all_ball_sizes(radius=4, chunk_size=13)
            run.bfs_distances([0, 5, 9], radius=3)
            tables.append(run.meter.round_table())
            run.close()
        assert tables[0] == tables[1]
        assert any(entry["bytes"] > 0 for entry in tables[0])

    def test_simulated_and_process_transports_agree(self):
        csr = random_regular(240, 3, np.random.default_rng(7)).csr()
        runs = {}
        for transport in ("simulated", "process"):
            run = MpcConfig(ranks=3, transport=transport).start(csr)
            sizes = run.all_ball_sizes(radius=4, chunk_size=64)
            dist = run.bfs_distances([1, 2], radius=3)
            runs[transport] = (
                _bytes(sizes),
                dist.tobytes(),
                run.meter.round_table(),
            )
            run.close()
        assert runs["simulated"] == runs["process"]

    def test_single_rank_moves_no_bytes(self):
        csr = grid_graph(8, 8).csr()
        run = MpcConfig(ranks=1).start(csr)
        run.all_ball_sizes(radius=3)
        totals = run.meter.totals()
        assert totals["bytes"] == 0 and totals["messages"] == 0
        assert totals["rounds"] > 0
        assert run.within_comm_budget()
        run.close()


class TestTinyPartitions:
    def test_more_ranks_than_vertices(self):
        tiny = Graph(5, [(0, 1), (1, 2), (3, 4)])
        csr = tiny.csr()
        part = partition_graph(csr, ranks=8)
        assert sum(1 for s in part.shards if s.kernel.n_owned == 0) >= 3
        serial = csr.all_ball_sizes(None)
        for layout in LAYOUTS:
            run = MpcConfig(ranks=8, layout=layout).start(csr)
            assert _bytes(serial) == _bytes(run.all_ball_sizes())
            assert (
                csr.bfs_distances([0, 3]).tobytes()
                == run.bfs_distances([0, 3]).tobytes()
            )
            run.close()

    def test_shattered_graph_with_empty_and_edgeless_shards(self):
        _, graph = GRAPHS[3]
        csr = graph.csr()
        serial = csr.all_ball_sizes(None, chunk_size=11)
        run = MpcConfig(ranks=8, layout="hash").start(csr)
        assert _bytes(serial) == _bytes(run.all_ball_sizes(chunk_size=11))
        run.close()


class TestLddExecutionBackend:
    def test_unknown_backend_rejected(self):
        assert EXECUTION_BACKENDS == ("local", "mpc")
        with pytest.raises(ValueError, match="execution_backend"):
            check_execution_backend("congest")

    @pytest.mark.parametrize("ranks", [1, 2, 4, 8])
    def test_partitions_bit_identical_to_local(self, ranks):
        graph = random_regular(300, 3, np.random.default_rng(3))
        params = LddParams.practical(0.3, graph.n)
        local = chang_li_ldd(graph, params, seed=11)
        run = MpcConfig(ranks=ranks).start(graph.csr())
        partitioned = chang_li_ldd(
            graph, params, seed=11, execution_backend="mpc", mpc=run
        )
        assert partitioned.deleted == local.deleted
        assert partitioned.clusters == local.clusters
        # The open run accumulated the whole execution's round series.
        totals = run.meter.totals()
        assert totals["rounds"] > 0
        if ranks > 1:
            assert totals["bytes"] > 0
        run.close()

    def test_config_form_owns_and_closes_its_run(self):
        graph = grid_graph(10, 10)
        params = LddParams.practical(0.3, graph.n)
        local = chang_li_ldd(graph, params, seed=5)
        partitioned = chang_li_ldd(
            graph,
            params,
            seed=5,
            execution_backend="mpc",
            mpc=MpcConfig(ranks=4, layout="hash"),
        )
        assert partitioned.deleted == local.deleted
        assert partitioned.clusters == local.clusters


class TestMpcCommScenario:
    def test_ci_budget_point_runs_and_verifies_identity(self):
        from repro.exp import get, run_scenario

        result = run_scenario(
            get("mpc-comm"),
            workers=0,
            trials=1,
            overrides={"family": ["random-3-regular-300"], "ranks": [2]},
        )
        assert result.statuses == {"ok": 1}
        metrics = result.rows[0]["metrics"]
        assert metrics["partition_identical"] is True
        assert metrics["ranks"] == 2
        assert metrics["comm_rounds"] > 0
        assert metrics["comm_bytes_total"] > 0
        assert metrics["max_round_rank_bytes"] == max(
            metrics["round_max_rank_bytes"]
        )
        assert metrics["comm_budget_bytes"] > 0
        assert isinstance(metrics["within_comm_budget"], bool)
