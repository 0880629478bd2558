"""Decomposition quality measurement against Definition 1.4.

Wraps :mod:`repro.graphs.metrics` for the decomposition result types and
adds the statistical summaries benchmarks report (per-trial unclustered
fractions, diameter budgets, failure counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.decomp.types import Decomposition
from repro.graphs.graph import Graph
from repro.graphs.metrics import decomposition_stats, validate_partition


@dataclass(frozen=True)
class LddTrialSummary:
    """Quality of one decomposition trial."""

    unclustered_fraction: float
    max_weak_diameter: float
    nominal_rounds: int
    effective_rounds: int
    num_clusters: int


def summarize_decomposition(
    graph: Graph,
    decomposition: Decomposition,
    validate: bool = True,
    n_override: Optional[int] = None,
) -> LddTrialSummary:
    """Validate and summarize one LDD output.

    ``n_override`` supports decompositions of a residual subset (the
    fraction is then measured against the subset size).
    """
    if validate:
        covered = decomposition.clustered_vertices() | decomposition.deleted
        sub, mapping = graph.induced_subgraph(covered)
        relabeled = [
            {mapping[v] for v in c} for c in decomposition.clusters
        ]
        validate_partition(
            sub, relabeled, {mapping[v] for v in decomposition.deleted}
        )
    stats = decomposition_stats(graph, decomposition.clusters, decomposition.deleted)
    n = n_override if n_override is not None else (
        len(decomposition.clustered_vertices()) + len(decomposition.deleted)
    )
    fraction = len(decomposition.deleted) / n if n else 0.0
    return LddTrialSummary(
        unclustered_fraction=fraction,
        max_weak_diameter=stats.max_weak_diameter,
        nominal_rounds=decomposition.ledger.nominal_rounds,
        effective_rounds=decomposition.ledger.effective_rounds,
        num_clusters=stats.num_clusters,
    )


@dataclass(frozen=True)
class TrialSeries:
    """Aggregate of repeated decomposition trials."""

    fractions: List[float]
    diameters: List[float]

    @property
    def max_fraction(self) -> float:
        return max(self.fractions, default=0.0)

    @property
    def mean_fraction(self) -> float:
        if not self.fractions:
            return 0.0
        return sum(self.fractions) / len(self.fractions)

    @property
    def max_diameter(self) -> float:
        return max(self.diameters, default=0.0)

    def failure_rate(self, eps: float) -> float:
        """Fraction of trials whose unclustered share exceeded ``eps``."""
        if not self.fractions:
            return 0.0
        return sum(1 for f in self.fractions if f > eps) / len(self.fractions)


def run_ldd_trials(
    graph: Graph,
    runner: Callable[[int], Decomposition],
    trials: int,
    validate: bool = True,
) -> TrialSeries:
    """Run ``runner(seed)`` repeatedly and collect quality series."""
    fractions: List[float] = []
    diameters: List[float] = []
    for trial in range(trials):
        decomposition = runner(trial)
        summary = summarize_decomposition(graph, decomposition, validate=validate)
        fractions.append(summary.unclustered_fraction)
        diameters.append(summary.max_weak_diameter)
    return TrialSeries(fractions=fractions, diameters=diameters)
