"""Pure-Python reference oracles for the CSR kernels.

Every BFS-shaped primitive the library runs in production executes on
the batched numpy kernels of :mod:`repro.graphs.csr` (through the
:class:`~repro.graphs.graph.Graph` methods, :func:`repro.local.gather.
gather_ball` and the ``n_v`` estimation of :func:`repro.core.ldd.
chang_li_ldd`).  This module keeps the straightforward per-vertex BFS
versions of those primitives as **test oracles only**: the equivalence
suite (``tests/test_graphs_csr.py``) pins each kernel to its oracle
here, and the E15 ``kernel-speed`` scenario times both.  Only tests,
benchmarks and that scenario import this module.

Return types match the production methods, so an oracle value and a
kernel value compare equal *and* serialize identically (``7.0``, not
``7``, for the float-annotated diameters).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graphs.graph import Graph
from repro.local.gather import GatherResult
from repro.util.validation import require


def eccentricity(graph: Graph, v: int) -> float:
    """Maximum distance from ``v``; ``inf`` when some vertex is unreachable."""
    dist = graph.bfs_distances([v])
    if len(dist) < graph.n:
        return float("inf")
    return float(max(dist.values(), default=0))


def diameter(graph: Graph) -> float:
    """Maximum eccentricity (``inf`` when disconnected, 0 when n <= 1)."""
    best = 0.0
    for v in range(graph.n):
        best = max(best, eccentricity(graph, v))
        if best == float("inf"):
            break
    return best


def weak_diameter(graph: Graph, subset: Iterable[int]) -> float:
    """``max_{u,v in subset} dist_G(u, v)`` measured in the full graph."""
    vs = sorted(set(subset))
    if len(vs) <= 1:
        return 0.0
    best = 0.0
    for v in vs:
        dist = graph.bfs_distances([v])
        for u in vs:
            if u not in dist:
                return float("inf")
            best = max(best, float(dist[u]))
    return best


def connected_components(
    graph: Graph, within: Optional[Iterable[int]] = None
) -> List[Set[int]]:
    """Components (of ``G[within]`` when given), in discovery order."""
    if within is None:
        allowed: Optional[Set[int]] = None
        universe: Iterable[int] = range(graph.n)
    else:
        allowed = set(within)
        universe = sorted(allowed)
    seen: Set[int] = set()
    components: List[Set[int]] = []
    for start in universe:
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in graph.neighbors(u):
                if w in seen or (allowed is not None and w not in allowed):
                    continue
                seen.add(w)
                comp.add(w)
                queue.append(w)
        components.append(comp)
    return components


def power(graph: Graph, k: int) -> Graph:
    """The k-th power graph ``G^k`` by one radius-k BFS per vertex."""
    require(k >= 1, f"power k must be >= 1, got {k}")
    edges: List[Tuple[int, int]] = []
    for v in range(graph.n):
        for u, d in graph.bfs_distances([v], k).items():
            if 0 < d and v < u:
                edges.append((v, u))
    return Graph(graph.n, edges)


def girth(graph: Graph, upper_bound: Optional[int] = None) -> float:
    """Shortest cycle length (``inf`` for forests).

    BFS from every vertex; a non-tree edge seen at depth d closes a
    cycle of length at most ``2d + 1``.  Returns as soon as the running
    best is at most ``upper_bound``.
    """
    best = float("inf")
    for root in range(graph.n):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best - 1:
                continue
            for w in graph.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    best = min(best, dist[u] + dist[w] + 1)
        if upper_bound is not None and best <= upper_bound:
            return best
    return best


def gather_ball(
    graph: Graph,
    centers: Iterable[int],
    radius: int,
    within: Optional[Set[int]] = None,
) -> GatherResult:
    """``N^radius(centers)`` as BFS layers, by a dict-and-deque BFS.

    ``within`` restricts the BFS to a residual vertex set; centers
    outside it are skipped.
    """
    dist: Dict[int, int] = {}
    queue: deque[int] = deque()
    for c in centers:
        if (within is None or c in within) and c not in dist:
            dist[c] = 0
            queue.append(c)
    while queue:
        u = queue.popleft()
        d = dist[u]
        if d >= radius:
            continue
        for w in graph.neighbors(u):
            if w in dist or (within is not None and w not in within):
                continue
            dist[w] = d + 1
            queue.append(w)
    depth = max(dist.values(), default=0)
    layers: List[Set[int]] = [set() for _ in range(depth + 1)]
    for v, d in dist.items():
        layers[d].add(v)
    return GatherResult(
        layers=tuple(frozenset(layer) for layer in layers),
        depth_reached=depth,
    )


def all_ball_sizes(
    graph: Graph, radius: int, weights: Optional[Sequence[float]] = None
) -> Tuple[List[float], List[int]]:
    """Per-vertex ``n_v = |N^radius(v)|`` and gather depth, one BFS each.

    The loop Algorithm 2 line 1 describes; ``weights`` measures each
    ball in vertex weight instead, summed in sorted vertex order.
    """
    sizes: List[float] = []
    depths: List[int] = []
    for v in range(graph.n):
        gathered = gather_ball(graph, [v], radius)
        if weights is None:
            sizes.append(float(len(gathered.ball)))
        else:
            sizes.append(sum(weights[u] for u in sorted(gathered.ball)))
        depths.append(gathered.depth_reached)
    return sizes, depths
