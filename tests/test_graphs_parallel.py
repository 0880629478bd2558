"""Determinism and plumbing tests for the process-parallel kernel layer.

The contract under test (ISSUE 5): every chunked CSR kernel produces
**bit-identical** output for ``kernel_workers`` in {1, 2, 4} — including
forced tiny chunk sizes, residual masks, weights and radius caps —
because the parallel path runs the serial loop's chunks unchanged on
worker processes attached to the CSR arrays via shared memory and
merges results in chunk order.
"""

import os

import numpy as np
import pytest

from repro import transport
from repro.core import LddParams, chang_li_ldd
from repro.graphs import csr as csr_module
from repro.graphs import parallel
from repro.graphs.generators import (
    grid_graph,
    hub_and_spokes,
    random_regular,
)
from repro.graphs.graph import Graph
from repro.graphs.metrics import decomposition_stats


def _graphs():
    rng = np.random.default_rng(7)
    shattered = Graph(
        90, [*((3 * i, 3 * i + 1) for i in range(30)), (1, 2), (4, 5)]
    )
    return [
        ("grid", grid_graph(14, 17)),
        ("regular", random_regular(240, 3, rng)),
        ("skewed", hub_and_spokes(4, 30)),  # padded-adjacency ineligible
        ("shattered", shattered),
    ]


GRAPHS = _graphs()


def _bytes(arrays):
    return tuple(np.ascontiguousarray(a).tobytes() for a in arrays)


class TestResolveKernelWorkers:
    def test_explicit_argument_wins_over_everything(self, monkeypatch):
        monkeypatch.setenv(transport.KERNEL_WORKERS_ENV, "2")
        assert transport.resolve_kernel_workers(4) == 4
        assert transport.resolve_kernel_workers(1) == 1

    def test_env_default_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setenv(transport.KERNEL_WORKERS_ENV, "64")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert transport.resolve_kernel_workers() == 4
        monkeypatch.setenv(transport.KERNEL_WORKERS_ENV, "3")
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert transport.resolve_kernel_workers() == 3

    def test_unset_or_junk_env_means_serial(self, monkeypatch):
        monkeypatch.delenv(transport.KERNEL_WORKERS_ENV, raising=False)
        assert transport.resolve_kernel_workers() == 1
        monkeypatch.setenv(transport.KERNEL_WORKERS_ENV, "many")
        assert transport.resolve_kernel_workers() == 1
        monkeypatch.setenv(transport.KERNEL_WORKERS_ENV, "0")
        assert transport.resolve_kernel_workers() == 1

    def test_invalid_explicit_count_rejected(self):
        with pytest.raises(ValueError, match="kernel_workers"):
            transport.resolve_kernel_workers(0)


class TestSharedExport:
    def test_spec_is_cached_per_graph(self):
        csr = grid_graph(6, 6).csr()
        spec = parallel.shared_spec(csr)
        assert parallel.shared_spec(csr) is spec
        assert spec["n"] == csr.n and spec["nnz"] == csr.nnz
        assert set(spec["arrays"]) >= {"indptr", "indices"}

    def test_worker_side_reconstruction_matches(self):
        csr = random_regular(60, 3, np.random.default_rng(0)).csr()
        spec = parallel.shared_spec(csr)
        rebuilt = parallel._attach(spec)
        assert rebuilt.n == csr.n and rebuilt.nnz == csr.nnz
        assert np.array_equal(rebuilt.indptr, csr.indptr)
        assert np.array_equal(rebuilt.indices, csr.indices)
        assert np.array_equal(rebuilt.degrees, csr.degrees)
        pad = csr._padded_adjacency()
        if pad is None:
            assert rebuilt._padded_adjacency() is None
        else:
            assert np.array_equal(rebuilt._padded_adjacency(), pad)

    def test_skewed_graph_replays_no_padded_table(self):
        csr = hub_and_spokes(2, 80).csr()
        assert csr._padded_adjacency() is None
        spec = parallel.shared_spec(csr)
        assert spec["has_padded"] is False and "padded" not in spec["arrays"]


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("label,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
class TestKernelBitIdentity:
    def test_all_ball_sizes(self, label, graph, workers):
        csr = graph.csr()
        rng = np.random.default_rng(1)
        weights = rng.random(graph.n)
        mask = rng.random(graph.n) < 0.8
        for kwargs in (
            dict(radius=None, chunk_size=13),
            dict(radius=3, chunk_size=13),
            dict(radius=None, weights=weights, chunk_size=29),
            dict(radius=5, within=mask, chunk_size=7),
            dict(radius=None, weights=weights, within=mask, chunk_size=1),
        ):
            serial = csr.all_ball_sizes(kernel_workers=1, **kwargs)
            sharded = csr.all_ball_sizes(kernel_workers=workers, **kwargs)
            assert _bytes(serial) == _bytes(sharded), kwargs

    def test_distances_and_eccentricities(self, label, graph, workers):
        csr = graph.csr()
        serial = csr.distances_from(range(graph.n), chunk_size=11)
        sharded = csr.distances_from(
            range(graph.n), chunk_size=11, kernel_workers=workers
        )
        assert serial.tobytes() == sharded.tobytes()
        # chunk_size=None exercises the narrow-to-spread path; exact
        # integer distances make any chunking bit-identical.
        auto = csr.distances_from(range(graph.n), kernel_workers=workers)
        assert serial.tobytes() == auto.tobytes()
        ecc1 = csr.eccentricities(chunk_size=17)
        ecc2 = csr.eccentricities(chunk_size=17, kernel_workers=workers)
        assert ecc1.tobytes() == ecc2.tobytes()

    def test_power_and_weak_diameter(self, label, graph, workers):
        csr = graph.csr()
        assert csr.power(3, chunk_size=19) == csr.power(
            3, chunk_size=19, kernel_workers=workers
        )
        subset = range(0, graph.n, 2)
        assert csr.weak_diameter(subset) == csr.weak_diameter(
            subset, kernel_workers=workers
        )


class TestConsumerBitIdentity:
    @pytest.fixture(autouse=True)
    def tiny_chunks(self, monkeypatch):
        # Shrink the gather budget so even these small graphs split
        # into many chunks — the parallel dispatch must engage.
        monkeypatch.setattr(csr_module, "_GATHER_BUDGET_BYTES", 1)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_chang_li_ldd_partition_identical(self, workers):
        graph = random_regular(300, 3, np.random.default_rng(3))
        params = LddParams.practical(0.3, graph.n)
        serial = chang_li_ldd(graph, params, seed=11, kernel_workers=1)
        sharded = chang_li_ldd(graph, params, seed=11, kernel_workers=workers)
        assert serial.deleted == sharded.deleted
        assert serial.clusters == sharded.clusters

    def test_decomposition_stats_identical(self):
        graph = grid_graph(12, 12)
        decomposition = chang_li_ldd(
            graph, LddParams.practical(0.3, graph.n), seed=2
        )
        serial = decomposition_stats(
            graph, decomposition.clusters, decomposition.deleted,
            compute_strong=True,
        )
        sharded = decomposition_stats(
            graph, decomposition.clusters, decomposition.deleted,
            compute_strong=True, kernel_workers=2,
        )
        assert serial == sharded

    def test_graph_level_kernels_identical(self):
        graph = random_regular(200, 4, np.random.default_rng(9))
        assert graph.power(2) == graph.power(2, kernel_workers=2)
        assert graph.diameter() == graph.diameter(kernel_workers=2)
        assert graph.girth() == graph.girth(kernel_workers=2)


class TestEnvDefaultPath:
    def test_env_drives_the_kernels_without_threading(self, monkeypatch):
        # Consumers that never pass kernel_workers= still shard when
        # the environment default says so — the runner's coordination
        # channel.  Identical output, per the contract.
        graph = grid_graph(10, 13)
        serial = graph.csr().all_ball_sizes(None, chunk_size=9)
        monkeypatch.setenv(transport.KERNEL_WORKERS_ENV, "2")
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        sharded = graph.csr().all_ball_sizes(None, chunk_size=9)
        assert _bytes(serial) == _bytes(sharded)
