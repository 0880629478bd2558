"""Undirected graph data structure used throughout the library.

The LOCAL model simulator, decomposition algorithms and ILP constructors
all operate on this class.  Vertices are integers ``0..n-1``.  The class
is intentionally small and predictable: adjacency lists of sorted
tuples, BFS-based distance primitives, induced subgraphs with explicit
relabelling maps, and power graphs (needed by the GKM17 baseline and the
Section 1.6 blackbox construction).  Whole-graph metrics (diameters,
components, powers, girth) run on the cached CSR kernels of
:mod:`repro.graphs.csr`; their pure-Python oracles live in
:mod:`repro.graphs.reference`.

``networkx`` interoperability is provided for cross-validation in tests
but no algorithm in the library depends on it.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.util.validation import check_vertex, require


class Graph:
    """A simple undirected graph on vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of ``(u, v)`` pairs.  Self-loops are rejected; duplicate
        edges are collapsed.
    """

    __slots__ = ("n", "_adj", "_edges", "_frozen_edge_set", "_csr")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()) -> None:
        require(n >= 0, f"n must be non-negative, got {n}")
        self.n = n
        self._csr = None
        adj: List[Set[int]] = [set() for _ in range(n)]
        edge_set: Set[Tuple[int, int]] = set()
        for u, v in edges:
            u = check_vertex("u", u, n)
            v = check_vertex("v", v, n)
            require(u != v, f"self-loop at vertex {u} is not allowed")
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in edge_set:
                continue
            edge_set.add((a, b))
            adj[a].add(b)
            adj[b].add(a)
        self._adj: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(neighbors)) for neighbors in adj
        )
        self._edges: Tuple[Tuple[int, int], ...] = tuple(sorted(edge_set))
        self._frozen_edge_set: FrozenSet[Tuple[int, int]] = frozenset(edge_set)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self._edges)

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        return self._edges

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        a, b = (u, v) if u < v else (v, u)
        return (a, b) in self._frozen_edge_set

    def csr(self):
        """The cached :class:`~repro.graphs.csr.CsrGraph` view.

        Built lazily on first use; the graph is immutable, so the CSR
        arrays stay valid for its lifetime.
        """
        if self._csr is None:
            from repro.graphs.csr import CsrGraph

            self._csr = CsrGraph(self)
        return self._csr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    # ------------------------------------------------------------------
    # BFS primitives
    # ------------------------------------------------------------------
    def bfs_distances(
        self, sources: Iterable[int], radius: Optional[int] = None
    ) -> Dict[int, int]:
        """Distances from the nearest vertex of ``sources``.

        Only vertices within ``radius`` hops (all reachable vertices when
        ``radius`` is ``None``) appear in the result.  Multi-source BFS:
        ``dist[v] = min over s in sources of dist(s, v)``.
        """
        dist: Dict[int, int] = {}
        queue: deque[int] = deque()
        for s in sources:
            if s not in dist:
                dist[s] = 0
                queue.append(s)
        while queue:
            u = queue.popleft()
            d = dist[u]
            if radius is not None and d >= radius:
                continue
            for w in self._adj[u]:
                if w not in dist:
                    dist[w] = d + 1
                    queue.append(w)
        return dist

    def ball(self, center: int, radius: int) -> Set[int]:
        """The ``radius``-radius neighborhood ``N^r(center)`` (inclusive)."""
        return set(self.bfs_distances([center], radius))

    def ball_of_set(self, centers: Iterable[int], radius: int) -> Set[int]:
        """``N^r(S)`` — vertices within ``radius`` of any center."""
        return set(self.bfs_distances(centers, radius))

    def bfs_layers(
        self, sources: Iterable[int], radius: Optional[int] = None
    ) -> List[Set[int]]:
        """BFS layers ``[S_0, S_1, ...]`` with ``S_j`` = vertices at distance j."""
        dist = self.bfs_distances(sources, radius)
        if not dist:
            return []
        depth = max(dist.values())
        layers: List[Set[int]] = [set() for _ in range(depth + 1)]
        for v, d in dist.items():
            layers[d].add(v)
        return layers

    def distance(self, u: int, v: int) -> float:
        """Hop distance between ``u`` and ``v`` (``inf`` if disconnected)."""
        dist = self.bfs_distances([u])
        return dist.get(v, float("inf"))

    def eccentricity(self, v: int) -> float:
        """Maximum distance from ``v`` to any reachable vertex; ``inf`` when
        the graph is disconnected (taken over all vertices)."""
        dist = self.csr().bfs_distances([v])
        if bool((dist < 0).any()):
            return float("inf")
        return float(dist.max())

    def diameter(self, kernel_workers: Optional[int] = None) -> float:
        """Graph diameter (``inf`` when disconnected, 0 when n <= 1).

        All eccentricities come from packed chunks
        (:meth:`~repro.graphs.csr.CsrGraph.eccentricities`);
        ``kernel_workers`` shards those chunks over worker processes.
        """
        if self.n == 0:
            return 0.0
        return float(self.csr().eccentricities(kernel_workers=kernel_workers).max())

    # ------------------------------------------------------------------
    # Components and subgraphs
    # ------------------------------------------------------------------
    def connected_components(
        self, within: Optional[Iterable[int]] = None
    ) -> List[Set[int]]:
        """Connected components, optionally of the subgraph induced by
        ``within`` (components computed using only edges inside it),
        in discovery order
        (:meth:`~repro.graphs.csr.CsrGraph.connected_components`)."""
        return self.csr().connected_components(within=within)

    def induced_subgraph(
        self, vertices: Iterable[int]
    ) -> Tuple["Graph", Dict[int, int]]:
        """Induced subgraph on ``vertices``.

        Returns ``(subgraph, mapping)`` where ``mapping`` sends original
        labels to subgraph labels ``0..k-1`` (sorted order).
        """
        vs = sorted(set(vertices))
        mapping = {v: i for i, v in enumerate(vs)}
        sub_edges = [
            (mapping[u], mapping[w])
            for u in vs
            for w in self._adj[u]
            if u < w and w in mapping
        ]
        return Graph(len(vs), sub_edges), mapping

    def remove_vertices(self, vertices: Iterable[int]) -> Tuple["Graph", Dict[int, int]]:
        """Convenience: induced subgraph on the complement of ``vertices``."""
        drop = set(vertices)
        return self.induced_subgraph(v for v in range(self.n) if v not in drop)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def power(self, k: int, kernel_workers: Optional[int] = None) -> "Graph":
        """The k-th power graph ``G^k``: edge when ``1 <= dist <= k``.

        Used by the GKM17 baseline (network decomposition of ``G^{2k}``)
        and by the Section 1.6 blackbox construction.  Reachability for
        all vertices comes from one batched kernel sweep;
        ``kernel_workers`` shards its source chunks over worker
        processes.
        """
        require(k >= 1, f"power k must be >= 1, got {k}")
        return self.csr().power(k, kernel_workers=kernel_workers)

    def weak_diameter(
        self, subset: Iterable[int], kernel_workers: Optional[int] = None
    ) -> float:
        """Weak diameter: ``max_{u,v in subset} dist_G(u, v)`` measured in
        the *full* graph (Definition 1.4)."""
        return self.csr().weak_diameter(subset, kernel_workers=kernel_workers)

    def strong_diameter(
        self, subset: Iterable[int], kernel_workers: Optional[int] = None
    ) -> float:
        """Strong diameter: diameter of the induced subgraph ``G[subset]``."""
        sub, _ = self.induced_subgraph(subset)
        return sub.diameter(kernel_workers=kernel_workers)

    def girth(
        self,
        upper_bound: Optional[int] = None,
        kernel_workers: Optional[int] = None,
    ) -> float:
        """Length of the shortest cycle (``inf`` for forests).

        Per-root scans over batched distance chunks
        (:meth:`~repro.graphs.csr.CsrGraph.girth`).  ``upper_bound``
        allows early exit once a cycle at most that long is ruled in.
        """
        return self.csr().girth(upper_bound, kernel_workers=kernel_workers)

    def is_bipartite(self) -> bool:
        """Two-colorability check via BFS."""
        color: Dict[int, int] = {}
        for start in range(self.n):
            if start in color:
                continue
            color[start] = 0
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for w in self._adj[u]:
                    if w not in color:
                        color[w] = 1 - color[u]
                        queue.append(w)
                    elif color[w] == color[u]:
                        return False
        return True

    def is_regular(self) -> bool:
        degrees = {len(a) for a in self._adj}
        return len(degrees) <= 1

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (for cross-validation)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(self._edges)
        return g

    @classmethod
    def from_networkx(cls, nxg) -> "Graph":
        """Build from a networkx graph with integer-convertible labels.

        Integer-convertible labels are relabelled in *numeric* order
        (``2 < 10 < 30``, not the lexicographic ``"10" < "2" < "30"``),
        so a path ``2–10–30`` imports as the path ``0–1–2``; labels
        ``0..n-1`` map to themselves.  Other labels are relabelled by
        ``repr`` order.
        """
        nodes = list(nxg.nodes())
        try:
            numeric = sorted(nodes, key=lambda v: (int(v), repr(v)))
        except (TypeError, ValueError):
            numeric = None
        if numeric is not None and [int(v) for v in numeric] == list(
            range(len(nodes))
        ):
            mapping = {v: int(v) for v in nodes}
        elif numeric is not None:
            mapping = {v: i for i, v in enumerate(numeric)}
        else:
            mapping = {v: i for i, v in enumerate(sorted(nodes, key=repr))}
        edges = [(mapping[u], mapping[v]) for u, v in nxg.edges()]
        return cls(len(nodes), edges)

    @classmethod
    def _from_sorted_edge_arrays(cls, n: int, us, vs) -> "Graph":
        """Trusted bulk constructor used by the CSR kernels.

        ``us``/``vs`` are numpy int arrays that must already be
        validated: in range, self-loop-free, deduplicated, ``us < vs``
        elementwise, and lexicographically sorted.  Skips the per-edge
        Python loop of ``__init__`` (the dominant cost when kernels
        emit tens of thousands of edges at once).
        """
        import numpy as np

        graph = object.__new__(cls)
        graph.n = n
        graph._csr = None
        edges = list(zip(us.tolist(), vs.tolist(), strict=True))
        graph._edges = tuple(edges)
        graph._frozen_edge_set = frozenset(edges)
        if n == 0:
            graph._adj = ()
            return graph
        heads = np.concatenate((us, vs))
        tails = np.concatenate((vs, us))
        order = np.lexsort((tails, heads))
        heads, tails = heads[order], tails[order]
        counts = np.bincount(heads, minlength=n) if len(heads) else np.zeros(n, dtype=np.int64)
        splits = np.cumsum(counts)[:-1]
        graph._adj = tuple(
            tuple(part.tolist()) for part in np.split(tails, splits)
        )
        return graph

    @classmethod
    def from_edges(cls, edges: Sequence[Tuple[int, int]]) -> "Graph":
        """Build with ``n`` inferred as ``max vertex + 1``."""
        n = 0
        for u, v in edges:
            n = max(n, u + 1, v + 1)
        return cls(n, edges)

    def union_disjoint(self, other: "Graph") -> "Graph":
        """Disjoint union; ``other``'s vertices are shifted by ``self.n``."""
        edges = list(self._edges)
        edges.extend((u + self.n, v + self.n) for u, v in other._edges)
        return Graph(self.n + other.n, edges)

    def iter_balls(self, radius: int) -> Iterator[Tuple[int, Set[int]]]:
        """Yield ``(v, N^radius(v))`` for every vertex."""
        for v in range(self.n):
            yield v, self.ball(v, radius)
