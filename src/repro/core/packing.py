"""Theorem 1.2: (1−ε)-approximate packing ILP with high probability.

Pipeline (Section 4.1):

1. **Preparation** — ``16 ln ñ`` independent Elkin–Neiman decompositions
   with ``λ = 1/2`` run in parallel; the resulting cluster collection
   ``C`` provides the sampling estimates: each cluster ``C`` weighs
   itself (``W(P^local_C, C)``) against its ``8tR``-neighborhood
   (``W(P^local_{S_C}, S_C)``).  The ratio measures the cluster's share
   of any fixed optimal solution — the trick that lets the algorithm
   "sample from" the unknown optimum ``P*`` (Section 1.4.2).
2. **Phase 1** — ``t`` iterations of weighted ball-growing-and-carving
   (Algorithm 4/5): clusters become centers with probability
   ``2^i W_C / W_{S_C}`` and delete the middle layer of the lightest
   3-layer window, measured by a local optimal packing solution.
3. **Phase 2** — one boosted iteration (Algorithm 6).
4. **Phase 3** — Elkin–Neiman with ``λ = ε/10`` on the residual; then
   every connected component of the non-deleted vertices solves its
   local packing instance (Observation 2.1) and the union is returned.

Feasibility is structural: components are mutually non-adjacent and
deleted variables are 0, so every constraint is enforced by exactly one
local solve (proof of Theorem 1.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.artifacts.cache import SolveCache
from repro.core.carve import grow_and_carve_packing
from repro.core.params import PackingParams
from repro.decomp.elkin_neiman import elkin_neiman_ldd
from repro.graphs.graph import Graph
from repro.ilp.exact import solve_packing_exact
from repro.ilp.instance import PackingInstance
from repro.local.gather import RoundLedger, gather_ball
from repro.util.rng import SeedLike, spawn_rngs
from repro.util.validation import require


@dataclass
class PackingResult:
    """Solution plus run diagnostics."""

    chosen: Set[int]
    weight: float
    ledger: RoundLedger
    deleted: Set[int]
    num_components: int
    num_prep_clusters: int
    centers_per_iteration: List[int] = field(default_factory=list)


@dataclass(frozen=True)
class _PrepCluster:
    vertices: frozenset
    weight_self: float
    weight_neighborhood: float


def chang_li_packing(
    instance: PackingInstance,
    params: PackingParams,
    seed: SeedLike = None,
    cache: Optional[SolveCache] = None,
) -> PackingResult:
    """Run the Theorem 1.2 algorithm with the given parameters."""
    cache = cache if cache is not None else SolveCache()
    hypergraph = instance.hypergraph()
    graph = hypergraph.primal_graph()
    n = graph.n
    ledger = RoundLedger()
    rng_streams = spawn_rngs(seed, params.prep_count + 3)
    prep_rngs = rng_streams[: params.prep_count]
    phase_rng = rng_streams[params.prep_count]
    phase3_rng = rng_streams[params.prep_count + 1]

    clusters = _prepare_clusters(instance, graph, params, prep_rngs, ledger, cache)

    remaining: Set[int] = set(range(n))
    deleted: Set[int] = set()
    centers_per_iteration: List[int] = []

    cluster_rngs = spawn_rngs(phase_rng, max(1, len(clusters)))
    for i in range(1, params.t + 1):
        interval = params.interval(i)
        center_ids = [
            idx
            for idx, cluster in enumerate(clusters)
            if cluster_rngs[idx].random()
            < params.sampling_probability(
                i, cluster.weight_self, cluster.weight_neighborhood
            )
        ]
        executed = _apply_packing_carves(
            instance,
            graph,
            clusters,
            center_ids,
            interval,
            remaining,
            deleted,
            ledger,
            f"phase1-iter{i}",
            cache,
        )
        centers_per_iteration.append(executed)

    interval = params.phase2_interval()
    center_ids = [
        idx
        for idx, cluster in enumerate(clusters)
        if cluster_rngs[idx].random()
        < params.phase2_probability(
            cluster.weight_self, cluster.weight_neighborhood
        )
    ]
    executed = _apply_packing_carves(
        instance,
        graph,
        clusters,
        center_ids,
        interval,
        remaining,
        deleted,
        ledger,
        "phase2",
        cache,
    )
    centers_per_iteration.append(executed)

    if remaining:
        en = elkin_neiman_ldd(
            graph,
            params.phase3_lambda,
            ntilde=params.ntilde,
            seed=phase3_rng,
            within=remaining,
        )
        deleted |= en.deleted
        ledger.merge(en.ledger, prefix="phase3-")

    # -- Final: per-component local solves (deleted variables are 0). --
    chosen: Set[int] = set()
    components = graph.connected_components(within=set(range(n)) - deleted)
    max_component_diameter = 0.0
    for component in components:
        local = solve_packing_exact(instance, subset=component, cache=cache)
        chosen |= set(local.chosen)
        max_component_diameter = max(
            max_component_diameter, graph.weak_diameter(component)
        )
    ledger.charge(
        "final-local-solve",
        int(max_component_diameter) if components else 0,
    )
    require(
        instance.is_feasible(chosen),
        "packing output violates a constraint — component isolation broken",
    )
    return PackingResult(
        chosen=chosen,
        weight=instance.weight(chosen),
        ledger=ledger,
        deleted=deleted,
        num_components=len(components),
        num_prep_clusters=len(clusters),
        centers_per_iteration=centers_per_iteration,
    )


def solve_packing(
    instance: PackingInstance,
    eps: float,
    ntilde: Optional[int] = None,
    seed: SeedLike = None,
    profile: str = "practical",
    cache: Optional[SolveCache] = None,
    **profile_kwargs,
) -> PackingResult:
    """Public entry point: profile construction + :func:`chang_li_packing`."""
    ntilde = ntilde if ntilde is not None else max(instance.n, 2)
    if profile == "paper":
        params = PackingParams.paper(eps, ntilde)
    elif profile == "practical":
        params = PackingParams.practical(eps, ntilde, **profile_kwargs)
    else:
        raise ValueError(f"unknown profile {profile!r}")
    return chang_li_packing(instance, params, seed=seed, cache=cache)


def _prepare_clusters(
    instance: PackingInstance,
    graph: Graph,
    params: PackingParams,
    prep_rngs: Sequence,
    ledger: RoundLedger,
    cache: SolveCache,
) -> List[_PrepCluster]:
    """Preparation step (Section 4.1.1): clusters and their estimates."""
    prep_ledgers = []
    raw_clusters: List[Set[int]] = []
    for rng in prep_rngs:
        en = elkin_neiman_ldd(graph, params.prep_lambda, ntilde=params.ntilde, seed=rng)
        raw_clusters.extend(en.clusters)
        prep_ledgers.append(en.ledger)
    ledger.merge_parallel(prep_ledgers, "prep-ldd")
    clusters: List[_PrepCluster] = []
    max_depth = 0
    for cluster in raw_clusters:
        gathered = gather_ball(graph, cluster, params.cluster_radius)
        neighborhood = gathered.ball
        max_depth = max(max_depth, gathered.depth_reached)
        w_self = solve_packing_exact(instance, subset=cluster, cache=cache).weight
        w_neigh = solve_packing_exact(
            instance, subset=neighborhood, cache=cache
        ).weight
        clusters.append(
            _PrepCluster(
                vertices=frozenset(cluster),
                weight_self=w_self,
                weight_neighborhood=w_neigh,
            )
        )
    ledger.charge("prep-estimates", 2 * params.cluster_radius, 2 * max_depth)
    return clusters


def _apply_packing_carves(
    instance: PackingInstance,
    graph: Graph,
    clusters: Sequence[_PrepCluster],
    center_ids: Sequence[int],
    interval: Tuple[int, int],
    remaining: Set[int],
    deleted: Set[int],
    ledger: RoundLedger,
    label: str,
    cache: SolveCache,
) -> int:
    """All sampled clusters carve against the same residual snapshot.

    Returns the number of carves actually executed (clusters whose
    seeds were already carved away are skipped and not counted —
    keeps the E12 ablation's carve-center column accurate).  The
    shared snapshot is converted to a boolean mask once and reused by
    every carve's BFS.
    """
    removed_now: Set[int] = set()
    deleted_now: Set[int] = set()
    max_depth = 0
    executed = 0
    snapshot = remaining
    if center_ids:
        snapshot = graph.csr().residual_mask(remaining)
    for idx in center_ids:
        seeds = set(clusters[idx].vertices) & remaining
        if not seeds:
            continue
        executed += 1
        outcome = grow_and_carve_packing(
            instance, graph, seeds, interval, snapshot, cache=cache
        )
        removed_now |= outcome.removed
        deleted_now |= outcome.deleted
        max_depth = max(max_depth, outcome.depth)
    removed_now -= deleted_now  # deleted wins (Section 4.1.3)
    deleted |= deleted_now
    remaining -= removed_now
    remaining -= deleted_now
    ledger.charge(label, 2 * interval[1], 2 * max_depth)
    return executed
