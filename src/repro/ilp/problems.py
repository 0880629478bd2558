"""Constructors mapping graph problems to packing/covering ILPs.

These are the fundamental problems the paper's introduction motivates:
maximum (weight) independent set, maximum matching and b-matching
(packing); minimum (weight) vertex cover, dominating set, k-distance
dominating set and set cover (covering).  Each constructor returns the
ILP instance; where variables are not graph vertices (matching), the
returned :class:`ProblemEncoding` carries the decoding map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type, TypeVar

import numpy as np

from repro.graphs.graph import Graph
from repro.ilp.instance import Constraint, CoveringInstance, PackingInstance
from repro.util.validation import require

_I = TypeVar("_I", PackingInstance, CoveringInstance)


def _vertex_weights(graph: Graph, weights: Optional[Sequence[float]]) -> List[float]:
    if weights is None:
        return [1.0] * graph.n
    require(len(weights) == graph.n, "need one weight per vertex")
    return [float(w) for w in weights]


def _unit_rows(
    cls: Type[_I],
    weights: Sequence[float],
    rows: Sequence[Sequence[int]],
    name: str,
    bounds: Optional[Sequence[float]] = None,
) -> _I:
    """Instance whose rows are the given column lists, coefficients one
    and bounds one unless given."""
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.fromiter(itertools.chain.from_iterable(rows), np.intp, indptr[-1])
    bounds = np.ones(len(rows)) if bounds is None else bounds
    return cls.from_csr(weights, indptr, indices, np.ones(len(indices)), bounds, name)


def _incident_edges(graph: Graph) -> List[List[int]]:
    """Per vertex, the indices of its edges in ``graph.edges()`` order."""
    incident: List[List[int]] = [[] for _ in range(graph.n)]
    for i, (u, v) in enumerate(graph.edges()):
        incident[u].append(i)
        incident[v].append(i)
    return incident


@dataclass(frozen=True)
class ProblemEncoding:
    """An ILP plus the map from variables back to graph objects."""

    instance: "PackingInstance | CoveringInstance"
    #: variable index -> graph object (vertex id or edge tuple)
    variable_meaning: Tuple[object, ...]

    def decode(self, chosen: Set[int]) -> List[object]:
        return [self.variable_meaning[v] for v in sorted(chosen)]


# ----------------------------------------------------------------------
# Packing problems
# ----------------------------------------------------------------------
def max_independent_set_ilp(
    graph: Graph, weights: Optional[Sequence[float]] = None
) -> PackingInstance:
    """MIS as packing: ``x_u + x_v <= 1`` per edge.

    The Definition 1.3 hypergraph of this instance has one size-2
    hyperedge per graph edge, so LOCAL distances coincide with graph
    distances.
    """
    w = _vertex_weights(graph, weights)
    return _unit_rows(PackingInstance, w, graph.edges(), "max-independent-set")


def max_matching_ilp(
    graph: Graph, weights: Optional[Dict[Tuple[int, int], float]] = None
) -> ProblemEncoding:
    """Maximum (weight) matching as packing over *edge* variables.

    Variable ``i`` is edge ``graph.edges()[i]``; one constraint per
    vertex bounds the incident selection by 1.  The instance hypergraph
    is the line-graph structure, exactly the bipartite modelling of ILPs
    used by [GKM17].
    """
    edges = graph.edges()
    if weights is None:
        w = [1.0] * len(edges)
    else:
        w = [float(weights.get(e, weights.get((e[1], e[0]), 1.0))) for e in edges]
    rows = [inc for inc in _incident_edges(graph) if inc]
    instance = _unit_rows(PackingInstance, w, rows, "max-matching")
    return ProblemEncoding(instance=instance, variable_meaning=tuple(edges))


def b_matching_ilp(
    graph: Graph, capacities: Sequence[int]
) -> ProblemEncoding:
    """Maximum b-matching: vertex ``v`` may touch ``capacities[v]`` edges."""
    require(len(capacities) == graph.n, "need one capacity per vertex")
    edges = graph.edges()
    incident = _incident_edges(graph)
    kept = [v for v, inc in enumerate(incident) if inc]
    rows = [incident[v] for v in kept]
    capacity = [float(capacities[v]) for v in kept]
    w = [1.0] * len(edges)
    instance = _unit_rows(PackingInstance, w, rows, "b-matching", capacity)
    return ProblemEncoding(instance=instance, variable_meaning=tuple(edges))


def knapsack_packing_ilp(
    weights: Sequence[float],
    sizes: Sequence[Sequence[float]],
    capacities: Sequence[float],
) -> PackingInstance:
    """General multi-dimensional knapsack (dense rows allowed).

    Exercises packing instances whose coefficients are not 0/1 — the
    general case of Definition 1.1.
    """
    require(all(len(row) == len(weights) for row in sizes), "ragged size matrix")
    require(len(capacities) == len(sizes), "one capacity per row")
    constraints = []
    for row, cap in zip(sizes, capacities, strict=True):
        coeffs = {i: float(c) for i, c in enumerate(row) if c != 0}
        if coeffs:
            constraints.append(Constraint(coeffs, float(cap)))
    return PackingInstance(list(weights), constraints, name="knapsack")


# ----------------------------------------------------------------------
# Covering problems
# ----------------------------------------------------------------------
def min_vertex_cover_ilp(
    graph: Graph, weights: Optional[Sequence[float]] = None
) -> CoveringInstance:
    """MVC as covering: ``x_u + x_v >= 1`` per edge."""
    w = _vertex_weights(graph, weights)
    return _unit_rows(CoveringInstance, w, graph.edges(), "min-vertex-cover")


def min_dominating_set_ilp(
    graph: Graph,
    weights: Optional[Sequence[float]] = None,
    k: int = 1,
) -> CoveringInstance:
    """(k-distance) minimum dominating set as covering.

    One constraint per vertex ``v``: the selection inside ``N^k[v]``
    must be at least 1 — the running example of Definition 1.3, where
    one hypergraph round costs ``k`` graph rounds.
    """
    require(k >= 1, f"k must be >= 1, got {k}")
    w = _vertex_weights(graph, weights)
    balls = [list(graph.ball(v, k)) for v in range(graph.n)]
    return _unit_rows(CoveringInstance, w, balls, f"min-{k}-dominating-set")


def set_cover_ilp(
    num_sets: int,
    elements: Sequence[Iterable[int]],
    weights: Optional[Sequence[float]] = None,
) -> CoveringInstance:
    """Weighted set cover: variable per set, constraint per element.

    ``elements[e]`` lists the sets containing element ``e``.
    """
    if weights is None:
        weights = [1.0] * num_sets
    require(len(weights) == num_sets, "need one weight per set")
    rows = [list(dict.fromkeys(int(s) for s in sets)) for sets in elements]
    for e, row in enumerate(rows):
        require(bool(row), f"element {e} is uncoverable (empty candidate list)")
    return _unit_rows(CoveringInstance, weights, rows, "set-cover")


def min_edge_cover_ilp(graph: Graph) -> ProblemEncoding:
    """Minimum edge cover: select edges so every vertex is touched."""
    edges = graph.edges()
    incident = _incident_edges(graph)
    for v, inc in enumerate(incident):
        require(bool(inc), f"vertex {v} is isolated: no edge cover exists")
    w = [1.0] * len(edges)
    instance = _unit_rows(CoveringInstance, w, incident, "min-edge-cover")
    return ProblemEncoding(instance=instance, variable_meaning=tuple(edges))


def general_covering_ilp(
    weights: Sequence[float],
    rows: Sequence[Dict[int, float]],
    bounds: Sequence[float],
) -> CoveringInstance:
    """General covering instance from sparse rows (arbitrary A, b >= 0)."""
    require(len(rows) == len(bounds), "one bound per row")
    constraints = [
        Constraint(dict(row), float(b))
        for row, b in zip(rows, bounds, strict=True)
        if row
    ]
    return CoveringInstance(list(weights), constraints, name="general-covering")
