"""Tests for the decomposition-quality measurement helpers."""


import pytest

from repro.decomp import elkin_neiman_ldd
from repro.decomp.quality import (
    TrialSeries,
    run_ldd_trials,
    summarize_decomposition,
)
from repro.decomp.types import Decomposition
from repro.graphs import cycle_graph, grid_graph, reference
from repro.local.gather import RoundLedger


class TestTrialSeries:
    def test_statistics(self):
        series = TrialSeries(
            fractions=[0.1, 0.3, 0.2], diameters=[4, 6, 5]
        )
        assert series.max_fraction == 0.3
        assert series.mean_fraction == pytest.approx(0.2)
        assert series.max_diameter == 6
        assert series.failure_rate(0.25) == pytest.approx(1 / 3)
        assert series.failure_rate(0.5) == 0.0

    def test_empty(self):
        series = TrialSeries(fractions=[], diameters=[])
        assert series.max_fraction == 0.0
        assert series.failure_rate(0.1) == 0.0


class TestSummarize:
    def test_summary_fields(self):
        g = grid_graph(5, 5)
        d = elkin_neiman_ldd(g, 0.4, seed=0)
        s = summarize_decomposition(g, d)
        assert 0 <= s.unclustered_fraction <= 1
        assert s.num_clusters == len(d.clusters)
        assert s.nominal_rounds == d.ledger.nominal_rounds

    def test_invalid_decomposition_caught(self):
        g = cycle_graph(6)
        bogus = Decomposition(
            clusters=[{0, 1}, {2, 3}],  # adjacent clusters, no buffer
            deleted={4, 5},
            centers=[None, None],
            ledger=RoundLedger(),
        )
        with pytest.raises(AssertionError):
            summarize_decomposition(g, bogus)

    def test_validation_can_be_skipped(self):
        g = cycle_graph(6)
        bogus = Decomposition(
            clusters=[{0, 1}, {2, 3}],
            deleted={4, 5},
            centers=[None, None],
            ledger=RoundLedger(),
        )
        s = summarize_decomposition(g, bogus, validate=False)
        assert s.unclustered_fraction == pytest.approx(2 / 6)

    def test_subset_fraction_override(self):
        g = cycle_graph(10)
        d = elkin_neiman_ldd(g, 0.5, seed=1, within=set(range(5)))
        s = summarize_decomposition(g, d, n_override=5)
        assert s.unclustered_fraction == len(d.deleted) / 5


class TestRunTrials:
    def test_collects_all_trials(self):
        g = grid_graph(4, 4)
        series = run_ldd_trials(
            g,
            lambda s: elkin_neiman_ldd(g, 0.5, seed=s),
            trials=5,
        )
        assert len(series.fractions) == 5
        assert len(series.diameters) == 5
        assert all(0 <= f <= 1 for f in series.fractions)


class TestReferenceDiameters:
    """The CSR-kernel quality path matches the python oracle."""

    def test_summarize_matches_reference_diameters(self):
        graph = grid_graph(8, 8)
        from repro.core import low_diameter_decomposition

        decomposition = low_diameter_decomposition(graph, eps=0.3, seed=2)
        summary = summarize_decomposition(graph, decomposition)
        expected = max(
            (reference.weak_diameter(graph, c) for c in decomposition.clusters),
            default=0.0,
        )
        assert summary.max_weak_diameter == expected
        assert type(summary.max_weak_diameter) is type(expected)
