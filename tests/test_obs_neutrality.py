"""Observer neutrality: tracing must never change what is computed.

The :mod:`repro.obs` design contract says instrumentation only *reads*
program state — algorithm outputs are bit-identical with tracing on or
off, at any kernel-worker count, and persisted rows differ only in the
timing-exempt fields (``elapsed_s``/``spans``/``counters``/``gauges``,
see :data:`repro.exp.store.TIMING_FIELDS`).  These tests pin that
contract, plus the ISSUE acceptance bound: a traced ldd-scale trial's
span table accounts for >= 90% of the row's ``elapsed_s``.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.exp.runner import run_scenario
from repro.exp.store import TIMING_FIELDS, strip_timing
from repro.graphs import grid_graph


def canonical(decomposition):
    """Order-independent bit-exact view of a decomposition."""
    return (
        sorted(tuple(sorted(c)) for c in decomposition.clusters),
        sorted(decomposition.deleted),
    )


class TestAlgorithmNeutrality:
    def test_chang_li_ldd_bit_identical(self):
        from repro.core import LddParams, chang_li_ldd

        graph = grid_graph(12, 12)
        params = LddParams.practical(0.3, graph.n)
        baseline = chang_li_ldd(graph, params, seed=7)
        with obs.collect() as col:
            traced = chang_li_ldd(graph, params, seed=7)
        assert canonical(traced) == canonical(baseline)
        # The run actually was instrumented end to end.
        table = col.span_table()
        assert "ldd.estimate_nv" in table
        assert any(path.endswith("carve.gather") for path in table)

    def test_settle_span_bit_identical(self):
        """The ``csr.settle`` step under ``ldd.estimate_nv``, on a path
        where the bounds settle some balls and the rest are swept."""
        from repro.core import LddParams, chang_li_ldd
        from repro.graphs import path_graph

        graph = path_graph(500)
        params = LddParams.practical(0.3, graph.n)
        baseline = chang_li_ldd(graph, params, seed=7)
        base_nv = graph.csr().settled_ball_sizes(params.estimate_radius)
        with obs.collect() as col:
            traced = chang_li_ldd(graph, params, seed=7)
            traced_nv = graph.csr().settled_ball_sizes(params.estimate_radius)
        assert canonical(traced) == canonical(baseline)
        assert traced.ledger == baseline.ledger
        assert np.array_equal(traced_nv[0], base_nv[0])
        assert traced_nv[1] == base_nv[1]
        assert "ldd.estimate_nv/csr.settle" in col.span_table()
        counters = col.counter_table()
        assert counters["csr.settle.pivots"] > 0
        assert counters["csr.settle.settled"] > 0
        assert counters["csr.settle.swept"] > 0
        assert (
            counters["csr.settle.settled"] + counters["csr.settle.swept"]
            == 2 * graph.n
        )

    def test_packing_covering_solutions_bit_identical(self):
        from repro.core import solve_covering, solve_packing
        from repro.exp.scenarios import _covering_instance, _packing_instance

        packing = _packing_instance("mis-cycle-80")
        covering = _covering_instance("mds-grid-6x7")
        base_p = solve_packing(packing, eps=0.4, seed=3)
        base_c = solve_covering(covering, eps=0.4, seed=3)
        with obs.collect() as col:
            traced_p = solve_packing(packing, eps=0.4, seed=3)
            traced_c = solve_covering(covering, eps=0.4, seed=3)
        assert sorted(traced_p.chosen) == sorted(base_p.chosen)
        assert traced_p.weight == base_p.weight
        assert sorted(traced_p.deleted) == sorted(base_p.deleted)
        assert traced_p.ledger == base_p.ledger
        assert traced_p.centers_per_iteration == base_p.centers_per_iteration
        assert sorted(traced_c.chosen) == sorted(base_c.chosen)
        assert traced_c.weight == base_c.weight
        assert traced_c.ledger == base_c.ledger
        assert traced_c.centers_per_iteration == base_c.centers_per_iteration
        # Both drivers are instrumented phase by phase, like the LDD.
        table = col.span_table()
        for path in (
            "packing.prep",
            "packing.carve.phase1-iter1",
            "packing.carve.phase2",
            "packing.final",
            "covering.prep",
            "covering.carve.phase1-iter1",
            "covering.zones",
            "covering.residual",
        ):
            assert path in table, path
        assert "packing.carve.phase1-iter1/carve.gather" in table
        assert "covering.carve.phase1-iter1/carve.gather" in table


class TestKernelNeutrality:
    @pytest.mark.parametrize("kernel_workers", [1, 2, 4])
    def test_all_ball_sizes_identical(self, kernel_workers):
        # chunk_size=8 on a 20x20 grid yields 50 chunks, so worker
        # counts > 1 genuinely engage the process-sharded path.
        csr = grid_graph(20, 20).csr()
        base_sizes, base_depths = csr.all_ball_sizes(radius=6, chunk_size=8)
        with obs.collect() as col:
            sizes, depths = csr.all_ball_sizes(
                radius=6, chunk_size=8, kernel_workers=kernel_workers
            )
        assert np.array_equal(sizes, base_sizes)
        assert np.array_equal(depths, base_depths)
        table = col.span_table()
        assert "csr.all_ball_sizes" in table
        if kernel_workers > 1:
            # Worker-side spans were shipped back and absorbed under
            # the parent's current path, once per chunk.
            chunk_key = "csr.all_ball_sizes/parallel.chunk.ball"
            assert table[chunk_key]["calls"] == 50
            assert "csr.all_ball_sizes/parallel.merge_wait" in table
            assert col.counter_table()["csr.ball.words_retired"] > 0
        else:
            assert "csr.all_ball_sizes/csr.ball_chunk" in table

    @pytest.mark.parametrize("kernel_workers", [1, 2])
    def test_distances_identical(self, kernel_workers):
        csr = grid_graph(14, 14).csr()
        sources = list(range(0, csr.n, 3))
        baseline = csr.distances_from(sources, chunk_size=8)
        with obs.collect():
            traced = csr.distances_from(
                sources, chunk_size=8, kernel_workers=kernel_workers
            )
        assert np.array_equal(traced, baseline)

    def test_untraced_workers_ship_no_exports(self):
        # Tracing off: the worker payload slot stays None end to end
        # and the parent process has nothing to absorb.
        csr = grid_graph(16, 16).csr()
        sizes, _depths = csr.all_ball_sizes(radius=5, chunk_size=8, kernel_workers=2)
        base_sizes, _ = csr.all_ball_sizes(radius=5, chunk_size=8)
        assert np.array_equal(sizes, base_sizes)
        assert not obs.enabled()


class TestRowNeutrality:
    OVERRIDES = {"family": ["grid-10x10"], "eps": [0.3]}

    def _rows(self, **kwargs):
        result = run_scenario(
            "ldd-quality",
            trials=2,
            max_points=1,
            overrides=self.OVERRIDES,
            **kwargs,
        )
        return result.rows

    def test_rows_identical_after_strip_timing(self):
        untraced = self._rows(obs=False)
        traced = self._rows(obs=True)
        assert [strip_timing(r) for r in traced] == [
            strip_timing(r) for r in untraced
        ]

    def test_obs_tables_present_only_when_traced(self):
        for row in self._rows(obs=False):
            assert "spans" not in row and "counters" not in row
        for row in self._rows(obs=True):
            assert row["spans"]["trial.ldd"]["calls"] == 1
            assert "counters" in row and "gauges" in row

    @pytest.mark.parametrize("kernel_workers", [2, 4])
    def test_traced_rows_identical_across_kernel_workers(self, kernel_workers):
        serial = self._rows(obs=True, kernel_workers=1)
        sharded = self._rows(obs=True, workers=kernel_workers, kernel_workers=kernel_workers)
        assert [strip_timing(r) for r in sharded] == [
            strip_timing(r) for r in serial
        ]

    def test_timing_fields_cover_obs_tables(self):
        assert set(TIMING_FIELDS) >= {"elapsed_s", "spans", "counters", "gauges"}


class TestSpanCoverageAcceptance:
    def test_ldd_scale_spans_cover_elapsed(self):
        """A traced ldd-scale trial's top-level spans account for
        >= 90% of ``elapsed_s`` (ISSUE acceptance bound)."""
        overrides = {"family": ["grid-40x40"], "eps": [0.2]}
        # Warm-up untraced run: lazy imports inside the trial body
        # (repro.core etc.) must not be billed against the traced row.
        run_scenario("ldd-scale", trials=1, overrides=overrides, obs=False)
        result = run_scenario("ldd-scale", trials=1, overrides=overrides, obs=True)
        (row,) = result.rows
        assert row["status"] == "ok"
        spans = row["spans"]
        covered = sum(
            spans[name]["wall_s"]
            for name in ("trial.build_graph", "trial.ldd", "trial.validate")
        )
        assert covered >= 0.90 * row["elapsed_s"], (
            f"top-level spans cover {covered:.4f}s of "
            f"elapsed_s={row['elapsed_s']:.4f}s "
            f"({covered / row['elapsed_s']:.1%} < 90%)"
        )
