"""Solution-quality and decomposition-quality metrics on graphs.

Checks for the combinatorial objects the ILP experiments produce
(independent sets, vertex covers, dominating sets, matchings, cuts) plus
summary statistics for low-diameter decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

from repro.graphs.graph import Graph


def is_independent_set(graph: Graph, vertices: Iterable[int]) -> bool:
    """True when no two selected vertices are adjacent."""
    selected = set(vertices)
    for v in selected:
        for u in graph.neighbors(v):
            if u in selected and u != v:
                return False
    return True


def is_vertex_cover(graph: Graph, vertices: Iterable[int]) -> bool:
    """True when every edge has a selected endpoint."""
    selected = set(vertices)
    return all(u in selected or v in selected for u, v in graph.edges())


def is_dominating_set(graph: Graph, vertices: Iterable[int], k: int = 1) -> bool:
    """True when every vertex is within distance ``k`` of a selected one."""
    selected = set(vertices)
    if not selected:
        return graph.n == 0
    covered = graph.ball_of_set(selected, k)
    return len(covered) == graph.n


def is_matching(graph: Graph, edges: Iterable[Tuple[int, int]]) -> bool:
    """True when the edge set exists in the graph and is vertex-disjoint."""
    used: Set[int] = set()
    for u, v in edges:
        if not graph.has_edge(u, v):
            return False
        if u in used or v in used:
            return False
        used.add(u)
        used.add(v)
    return True


def cut_size(graph: Graph, side: Iterable[int]) -> int:
    """Number of edges crossing the bipartition (side, complement)."""
    s = set(side)
    return sum(1 for u, v in graph.edges() if (u in s) != (v in s))


def independence_number_bound_lp(graph: Graph) -> float:
    """Fractional (LP) upper bound on the independence number.

    For regular graphs this is n/2; in general we solve the fractional
    relaxation in :mod:`repro.ilp.lp`, but a cheap combinatorial bound
    (n - matching lower bound) is often enough for sanity checks.
    """
    # Greedy maximal matching gives a lower bound on the matching number;
    # alpha(G) <= n - matching number.
    matched: Set[int] = set()
    size = 0
    for u, v in graph.edges():
        if u not in matched and v not in matched:
            matched.add(u)
            matched.add(v)
            size += 1
    return graph.n - size


@dataclass(frozen=True)
class DecompositionStats:
    """Summary of a low-diameter decomposition's quality.

    Attributes mirror Definition 1.4: number of clusters, fraction of
    unclustered ("deleted") vertices, and the maximum weak and strong
    diameters across clusters.
    """

    n: int
    num_clusters: int
    unclustered: int
    max_weak_diameter: float
    max_strong_diameter: float
    max_cluster_size: int

    @property
    def unclustered_fraction(self) -> float:
        return self.unclustered / self.n if self.n else 0.0


def decomposition_stats(
    graph: Graph,
    clusters: Sequence[Set[int]],
    deleted: Set[int],
    compute_strong: bool = False,
    kernel_workers: Optional[int] = None,
) -> DecompositionStats:
    """Measure a decomposition against Definition 1.4.

    ``compute_strong`` also evaluates strong (induced) diameters, which
    is quadratic-ish and off by default.  Each cluster's diameters come
    from one batched packed-frontier expansion; ``kernel_workers``
    shards each cluster's distance chunks over worker processes — the
    values are exact hop counts, identical at any worker count.
    """
    max_weak = 0.0
    max_strong = 0.0
    max_size = 0
    for cluster in clusters:
        max_size = max(max_size, len(cluster))
        max_weak = max(
            max_weak, graph.weak_diameter(cluster, kernel_workers=kernel_workers)
        )
        if compute_strong:
            max_strong = max(
                max_strong,
                graph.strong_diameter(cluster, kernel_workers=kernel_workers),
            )
    return DecompositionStats(
        n=graph.n,
        num_clusters=len(clusters),
        unclustered=len(deleted),
        max_weak_diameter=max_weak,
        max_strong_diameter=max_strong if compute_strong else float("nan"),
        max_cluster_size=max_size,
    )


def validate_partition(
    graph: Graph, clusters: Sequence[Set[int]], deleted: Set[int]
) -> None:
    """Assert the decomposition is a partition with non-adjacent clusters.

    Raises ``AssertionError`` describing the first violation: overlap,
    missing vertex, or an edge joining two different clusters
    (Definition 1.4 requires clusters to be mutually non-adjacent).
    """
    owner: Dict[int, int] = {}
    for idx, cluster in enumerate(clusters):
        for v in cluster:
            if v in owner:
                raise AssertionError(
                    f"vertex {v} is in clusters {owner[v]} and {idx}"
                )
            if v in deleted:
                raise AssertionError(f"vertex {v} is both clustered and deleted")
            owner[v] = idx
    covered = len(owner) + len(deleted)
    if covered != graph.n:
        missing = [
            v for v in range(graph.n) if v not in owner and v not in deleted
        ]
        raise AssertionError(
            f"decomposition covers {covered}/{graph.n} vertices; missing {missing[:5]}"
        )
    for u, v in graph.edges():
        cu, cv = owner.get(u), owner.get(v)
        if cu is not None and cv is not None and cu != cv:
            raise AssertionError(
                f"edge ({u},{v}) joins clusters {cu} and {cv}: not non-adjacent"
            )
