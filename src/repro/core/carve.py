"""Ball-growing-and-carving subroutines (Algorithms 1, 4 and 7).

All three carves share the shape: gather the ``b``-radius neighborhood
of the center (vertex or cluster) inside the residual graph, score each
candidate cut position in the interval ``[a, b]``, cut at the cheapest
one, and split the graph there.  They differ in what is cut:

* :func:`grow_and_carve` (Alg 1, LDD) — **delete** the smallest BFS
  layer ``S_{j*}``, **remove** ``N^{j*-1}`` as a finished cluster;
* :func:`grow_and_carve_packing` (Alg 4) — delete the middle layer of
  the lightest length-3 window, measured by an optimal local *packing*
  solution;
* :func:`grow_and_carve_covering` (Alg 7) — **fix** an optimal local
  *covering* solution on the lightest odd layer pair (satisfying every
  constraint crossing it) and remove ``N^{j*}`` as an isolated zone.

The iteration drivers (in :mod:`repro.core.ldd` etc.) apply carves of
all sampled centers against the *same* residual snapshot, then merge:
a vertex deleted by any carve is deleted ("deleted wins", Section
3.1.2); fixed assignments are unioned (Section 5.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Set, Tuple

import repro.obs as _obs
from repro.graphs.graph import Graph
from repro.artifacts.cache import SolveCache
from repro.ilp.exact import solve_covering_exact, solve_packing_exact
from repro.ilp.instance import CoveringInstance, PackingInstance
from repro.local.gather import gather_ball
from repro.util.validation import require

Interval = Tuple[int, int]


@dataclass(frozen=True)
class CarveOutcome:
    """Result of one ball-growing-and-carving execution.

    ``removed`` vertices are clustered and leave the residual graph;
    ``deleted`` vertices are permanently unclustered (LDD / packing) —
    empty for covering carves, which instead report ``fixed_ones``.
    ``depth`` is the BFS depth actually reached (effective rounds).
    """

    removed: Set[int]
    deleted: Set[int]
    fixed_ones: Set[int]
    cut_position: int
    depth: int


def _weights_of(layer: Iterable[int], weights: Optional[Sequence[float]]) -> float:
    if weights is None:
        return float(len(set(layer)))
    # Sorted so the float accumulation order is pinned (set iteration
    # order is an implementation detail; float addition is not
    # associative, so the order is part of the reproducibility contract).
    return sum(weights[v] for v in sorted(set(layer)))


def grow_and_carve(
    graph: Graph,
    centers: Iterable[int],
    interval: Interval,
    remaining: Set[int],
    weights: Optional[Sequence[float]] = None,
    mpc=None,
) -> CarveOutcome:
    """Algorithm 1: delete the sparsest layer in ``interval``.

    ``weights`` generalizes "sparsest" from vertex count to vertex
    weight (used by the Section 4 alternative approach's weighted LDD);
    ties break toward the smaller index.

    When the BFS exhausts the residual component before reaching ``a``
    the whole component is removed and nothing is deleted — the carve's
    purpose (isolating a cluster) is already achieved.

    ``remaining`` may be a vertex set or a precomputed boolean residual
    mask shared across the iteration's carves.  ``mpc`` (an
    :class:`~repro.mpc.MpcRun` on this graph) runs the gather as
    metered partitioned BFS rounds — bit-identical layers.
    """
    a, b = interval
    require(1 <= a <= b, f"invalid interval [{a}, {b}]")
    with _obs.span("carve.gather"):
        gathered = gather_ball(graph, centers, b, within=remaining, mpc=mpc)
    layers = gathered.layers
    if gathered.depth_reached < a:
        return CarveOutcome(
            removed=set(gathered.ball),
            deleted=set(),
            fixed_ones=set(),
            cut_position=gathered.depth_reached,
            depth=gathered.depth_reached,
        )
    best_j = a
    best_size = float("inf")
    for j in range(a, min(b, gathered.depth_reached) + 1):
        size = _weights_of(layers[j], weights)
        if size < best_size:
            best_size = size
            best_j = j
    deleted = set(layers[best_j])
    removed: Set[int] = set()
    for j in range(best_j):
        removed |= set(layers[j])
    return CarveOutcome(
        removed=removed,
        deleted=deleted,
        fixed_ones=set(),
        cut_position=best_j,
        depth=gathered.depth_reached,
    )


def grow_and_carve_packing(
    instance: PackingInstance,
    graph: Graph,
    centers: Iterable[int],
    interval: Interval,
    remaining: Set[int],
    cache: Optional[SolveCache] = None,
) -> CarveOutcome:
    """Algorithm 4: delete the middle layer of the lightest 3-window.

    The interval ``[a, b]`` has ``a ≡ 1 (mod 3)`` and length divisible
    by 3; windows ``[j, j+2]`` for ``j ≡ a (mod 3)`` partition it.  The
    local optimum ``P^local`` of ``N^{b-1}(C)`` (within the residual)
    scores each window; the middle layer ``S_{j*+1}`` of the lightest
    window is deleted and ``N^{j*}(C)`` removed.

    ``remaining`` may be a precomputed boolean residual mask, as in
    :func:`grow_and_carve`.
    """
    a, b = interval
    require(1 <= a < b, f"invalid interval [{a}, {b}]")
    with _obs.span("carve.gather"):
        gathered = gather_ball(graph, centers, b - 1, within=remaining)
    layers = gathered.layers
    if gathered.depth_reached < a:
        return CarveOutcome(
            removed=set(gathered.ball),
            deleted=set(),
            fixed_ones=set(),
            cut_position=gathered.depth_reached,
            depth=gathered.depth_reached,
        )
    with _obs.span("carve.local_solve"):
        local = solve_packing_exact(instance, subset=gathered.ball, cache=cache)
    best_j = a
    best_weight = float("inf")
    j = a
    while j <= b - 1:
        window = set(layers[j]) if j < len(layers) else set()
        if j + 1 < len(layers):
            window |= set(layers[j + 1])
        if j + 2 < len(layers):
            window |= set(layers[j + 2])
        w = instance.weight_on(local.chosen, window)
        if w < best_weight:
            best_weight = w
            best_j = j
        j += 3
    deleted = set(layers[best_j + 1]) if best_j + 1 < len(layers) else set()
    removed: Set[int] = set()
    for j in range(best_j + 1):
        if j < len(layers):
            removed |= set(layers[j])
    return CarveOutcome(
        removed=removed,
        deleted=deleted,
        fixed_ones=set(),
        cut_position=best_j,
        depth=gathered.depth_reached,
    )


def grow_and_carve_covering(
    instance: CoveringInstance,
    graph: Graph,
    centers: Iterable[int],
    interval: Interval,
    remaining: Set[int],
    fixed_ones: Set[int],
    cache: Optional[SolveCache] = None,
) -> CarveOutcome:
    """Algorithm 7: fix the lightest odd layer pair, remove ``N^{j*}``.

    The local optimum ``Q^local`` of ``N^b(C)`` (completion under the
    already-fixed variables) scores every odd ``j``; the pair
    ``S_{j*} ∪ S_{j*+1}`` of minimum fixed weight is committed.  Every
    constraint crossing the removal boundary lies inside the pair
    (supports span at most two consecutive BFS layers) and is therefore
    satisfied by the commitment.  Only ``N^{j*}`` is removed — the
    pair's outer layer stays in the residual graph.

    ``remaining`` may be a precomputed boolean residual mask, as in
    :func:`grow_and_carve`.
    """
    a, b = interval
    require(1 <= a < b, f"invalid interval [{a}, {b}]")
    with _obs.span("carve.gather"):
        gathered = gather_ball(graph, centers, b, within=remaining)
    layers = gathered.layers
    if gathered.depth_reached < a + 1:
        return CarveOutcome(
            removed=set(gathered.ball),
            deleted=set(),
            fixed_ones=set(),
            cut_position=gathered.depth_reached,
            depth=gathered.depth_reached,
        )
    with _obs.span("carve.local_solve"):
        local = solve_covering_exact(
            instance, subset=gathered.ball, fixed_ones=fixed_ones, cache=cache
        )
    first_odd = a if a % 2 == 1 else a + 1
    best_j = None
    best_weight = float("inf")
    last = min(b - 1, gathered.depth_reached - 1)
    for j in range(first_odd, last + 1, 2):
        pair = set(layers[j]) | set(layers[j + 1])
        w = instance.weight_on(local.chosen, pair)
        if w < best_weight:
            best_weight = w
            best_j = j
    require(best_j is not None, "no odd cut position available")
    pair = set(layers[best_j]) | set(layers[best_j + 1])
    newly_fixed = {u for u in local.chosen if u in pair}
    removed: Set[int] = set()
    for j in range(best_j + 1):
        removed |= set(layers[j])
    return CarveOutcome(
        removed=removed,
        deleted=set(),
        fixed_ones=newly_fixed,
        cut_position=best_j,
        depth=gathered.depth_reached,
    )
