"""Hypergraph sparse cover and the covering solver built on it.

Lemma C.2: the shifted-flood clustering where a vertex joins *every*
source within 1 of its maximum produces overlapping clusters such that

* each cluster has weak diameter ≤ ``8 ln ñ / λ``,
* every hyperedge is fully contained in at least one cluster (its
  members are mutually adjacent, so their maxima differ by ≤ 1), and
* the number of clusters containing a fixed vertex is dominated by
  ``Geometric(e^{-λ}) + ñ^{-2}``.

Lemma C.3 turns a sparse cover into a covering-ILP solver: each cluster
solves its local instance optimally and the solutions are OR-ed; the
total weight is at most ``Σ_v X_v · Q*(v) · w_v``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.artifacts.cache import SolveCache
from repro.decomp.shifts import rounds_for_flood, sample_shifts
from repro.decomp.types import SparseCover
from repro.graphs.hypergraph import Hypergraph
from repro.ilp.exact import solve_covering_exact
from repro.ilp.instance import CoveringInstance
from repro.local.gather import RoundLedger
from repro.util.rng import SeedLike
from repro.util.validation import check_positive, require


def _within_one_members(
    graph, shifts: Sequence[float], vertices, within: Optional[Set[int]]
) -> Dict[int, Set[int]]:
    """The Lemma C.2 membership map via batched CSR distances.

    Reproduces the heap flood's record values exactly: a token's value
    at distance ``d`` is ``d`` successive ``- 1.0`` float decrements of
    the shift (not ``shift - d``, which rounds differently), so the
    within-1 comparisons agree bit for bit with
    :func:`~repro.decomp.shifts.shifted_flood`.  Materializes the
    ``|within| x n`` distance matrix — fine at covering-instance scale,
    not meant for the 10^5-vertex regime.
    """
    import numpy as np

    src = np.fromiter(vertices, dtype=np.int64)
    if src.size == 0:
        return {}
    dist = graph.csr().distances_from(src, within=within)[:, src]
    shift_arr = np.asarray([shifts[int(u)] for u in src], dtype=np.float64)
    value = np.where(dist >= 0, shift_arr[:, None], -np.inf)
    top = int(dist.max()) if dist.size else 0
    for hop in range(1, top + 1):
        value[dist >= hop] -= 1.0
    best = value.max(axis=0)
    qualify = value >= best[None, :] - 1.0
    members: Dict[int, Set[int]] = {}
    for ui, vi in zip(*np.nonzero(qualify), strict=True):
        members.setdefault(int(src[ui]), set()).add(int(src[vi]))
    return members


def sparse_cover(
    hypergraph: Hypergraph,
    lam: float,
    ntilde: Optional[int] = None,
    seed: SeedLike = None,
    within: Optional[Set[int]] = None,
    shifts: Optional[Sequence[float]] = None,
) -> SparseCover:
    """Compute a Lemma C.2 sparse cover of ``hypergraph``.

    Distances are measured in the primal graph (hypergraph LOCAL
    model).  When ``within`` restricts to a residual vertex set, the
    coverage guarantee applies to hyperedges fully inside it.

    The within-1 membership comes from batched CSR distance rows; the
    clusters equal the keep-all heap flood's
    (:func:`~repro.decomp.shifts.shifted_flood` with
    :func:`~repro.decomp.shifts.within_one_sources`, property-tested).
    """
    check_positive("lam", lam)
    graph = hypergraph.primal_graph()
    n = graph.n
    ntilde = ntilde if ntilde is not None else max(n, 2)
    require(ntilde >= n, f"ntilde={ntilde} below n={n}")
    if shifts is None:
        shifts = sample_shifts(n, lam, ntilde, seed)
    else:
        require(len(shifts) == n, "need one shift per vertex")
    vertices = sorted(within) if within is not None else range(n)
    members = _within_one_members(graph, list(shifts), vertices, within)
    centers = sorted(members)
    ledger = RoundLedger()
    nominal = math.ceil(4.0 * math.log(ntilde) / lam)
    ledger.charge("sparse-cover-flood", nominal, rounds_for_flood(list(shifts)))
    return SparseCover(
        clusters=[members[c] for c in centers],
        centers=list(centers),
        ledger=ledger,
    )


def verify_edge_coverage(
    hypergraph: Hypergraph,
    cover: SparseCover,
    edge_indices: Optional[Sequence[int]] = None,
) -> List[int]:
    """Return the hyperedge indices *not* contained in any cluster.

    Lemma C.2 guarantees this list is empty (over the vertex set the
    cover was computed on); the covering algorithms assert on it.
    """
    cluster_sets = [frozenset(c) for c in cover.clusters]
    uncovered = []
    indices = (
        range(hypergraph.m) if edge_indices is None else edge_indices
    )
    for j in indices:
        edge = hypergraph.edge(j)
        if not any(edge <= cluster for cluster in cluster_sets):
            uncovered.append(j)
    return uncovered


def solve_covering_by_sparse_cover(
    instance: CoveringInstance,
    lam: float,
    ntilde: Optional[int] = None,
    seed: SeedLike = None,
    within: Optional[Set[int]] = None,
    edge_indices: Optional[Sequence[int]] = None,
    fixed_ones: Set[int] = frozenset(),
    cache: Optional[SolveCache] = None,
) -> Tuple[Set[int], SparseCover]:
    """Lemma C.3: cover the constraints, solve locally, take the OR.

    Parameters
    ----------
    within:
        Residual vertex set (variables still free).
    edge_indices:
        Residual constraint indices to satisfy (default: all whose
        support lies inside ``within``).
    fixed_ones:
        Variables already committed to one; their contribution reduces
        the local bounds and they are excluded from the returned set.

    Returns the selected variable set (excluding ``fixed_ones``) and
    the sparse cover used.
    """
    hypergraph = instance.hypergraph()
    if within is None:
        within_set = set(range(instance.n))
    else:
        within_set = set(within)
    cover = sparse_cover(hypergraph, lam, ntilde=ntilde, seed=seed, within=within_set)
    if edge_indices is None:
        edge_indices = [
            j
            for j in range(hypergraph.m)
            if hypergraph.edge(j) <= within_set
        ]
    uncovered = verify_edge_coverage(hypergraph, cover, edge_indices)
    require(
        not uncovered,
        f"sparse cover missed hyperedges {uncovered[:5]} — Lemma C.2 violated",
    )
    cluster_sets = [frozenset(c) for c in cover.clusters]
    # Assign every residual constraint to one covering cluster, then
    # solve each cluster's sub-instance exactly and OR the solutions.
    by_cluster: Dict[int, List[int]] = {}
    for j in edge_indices:
        edge = hypergraph.edge(j)
        for idx, cluster in enumerate(cluster_sets):
            if edge <= cluster:
                by_cluster.setdefault(idx, []).append(j)
                break
    chosen: Set[int] = set()
    for idx, edges in sorted(by_cluster.items()):
        sub = instance.restrict_to_edges(edges, fixed_ones=fixed_ones)
        local = solve_covering_exact(
            sub, subset=cluster_sets[idx] - set(fixed_ones), cache=cache
        )
        chosen |= set(local.chosen)
    return chosen, cover


def geometric_domination_pvalue(
    multiplicities: Sequence[int], lam: float, trials_factor: float = 1.0
) -> float:
    """Crude tail comparison of multiplicities vs Geometric(e^{-λ}).

    Returns the largest ratio ``P_emp[X >= k] / P_geom[X >= k]`` over
    the observed support (≤ ``1 + o(1)`` when domination holds).  Used
    by the E9 bench as a diagnostic, not a formal test.
    """
    p = math.exp(-lam)
    if not multiplicities:
        return 0.0
    n = len(multiplicities)
    worst = 0.0
    max_k = max(multiplicities)
    for k in range(1, max_k + 1):
        emp = sum(1 for x in multiplicities if x >= k) / n
        geo = (1 - p) ** (k - 1)
        if geo > 0:
            worst = max(worst, emp / geo)
    return worst
