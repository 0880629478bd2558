"""Theorem 1.3: (1+ε)-approximate covering ILP with high probability.

Pipeline (Section 5.1):

1. **Preparation** — ``16 ln ñ`` independent sparse covers (Lemma C.2)
   with ``λ = ln(21/20)`` provide the cluster collection and the
   sampling estimates ``W(Q^local_C, C) / W(Q^local_{S_C}, S_C)``.
2. **Phase 1** — ``t = ⌈log log n + log(1/ε) + O(1)⌉`` iterations of
   constraint-deleting ball carving (Algorithms 7/8): a carve *fixes*
   an optimal local solution on the lightest odd layer pair — thereby
   satisfying every constraint crossing the cut — and removes
   ``N^{j*}(C)`` as an isolated zone.  Unlike packing, no variable is
   ever deleted (zeroing variables can make covering infeasible,
   Section 1.4.3), which is why Phase 1 runs longer and there is no
   Phase-2 dense-pocket pass.
3. **Phase 2 (completion)** — the residual graph is solved via the
   sparse cover + local-OR route (Lemmas C.2/C.3) with
   ``λ = ln(1 + ε/5)``, while each removed zone solves its interior
   constraints optimally given the fixed variables.

The output is the union of the fixed variables, the zone solutions and
the residual solution; feasibility is checked structurally (every
constraint is satisfied-by-fixing, interior to a zone, or interior to
the residual) and then semantically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Set

import numpy as np

import repro.obs as _obs
from repro.artifacts.cache import SolveCache
from repro.core.carve import (
    carve_round,
    estimate_clusters,
    grow_and_carve_covering,
    sample_centers,
)
from repro.core.params import CoveringParams
from repro.decomp.sparse_cover import (
    solve_covering_by_sparse_cover,
    sparse_cover,
)
from repro.ilp.exact import solve_covering_exact
from repro.ilp.instance import FEASIBILITY_TOL, CoveringInstance
from repro.local.gather import RoundLedger
from repro.util.rng import SeedLike, spawn_rngs
from repro.util.validation import require


@dataclass
class CoveringResult:
    """Solution plus run diagnostics."""

    chosen: Set[int]
    weight: float
    ledger: RoundLedger
    fixed_weight: float  # weight committed by Phase-1 carves
    num_zones: int
    residual_size: int
    num_prep_clusters: int
    centers_per_iteration: List[int] = field(default_factory=list)


def chang_li_covering(
    instance: CoveringInstance,
    params: CoveringParams,
    seed: SeedLike = None,
    cache: Optional[SolveCache] = None,
) -> CoveringResult:
    """Run the Theorem 1.3 algorithm with the given parameters."""
    require(
        instance.is_satisfiable(),
        "covering instance is unsatisfiable (selecting everything fails)",
    )
    cache = cache if cache is not None else SolveCache()
    hypergraph = instance.hypergraph()
    graph = hypergraph.primal_graph()
    n = graph.n
    ledger = RoundLedger()
    rng_streams = spawn_rngs(seed, params.prep_count + 3)
    prep_rngs = rng_streams[: params.prep_count]
    phase_rng = rng_streams[params.prep_count]
    final_rng = rng_streams[params.prep_count + 1]

    # -- Preparation (Section 5.1.1): sparse covers + weight estimates. -
    with _obs.span("covering.prep"):
        prep_ledgers = []
        raw_clusters: List[Set[int]] = []
        for rng in prep_rngs:
            cover = sparse_cover(
                hypergraph,
                params.prep_lambda,
                ntilde=params.ntilde,
                seed=rng,
            )
            raw_clusters.extend(cover.clusters)
            prep_ledgers.append(cover.ledger)
        ledger.merge_parallel(prep_ledgers, "prep-sparse-cover")
        clusters = estimate_clusters(
            graph,
            raw_clusters,
            params.cluster_radius,
            lambda vertices: solve_covering_exact(
                instance, subset=vertices, cache=cache
            ).weight,
            ledger,
        )

    remaining: Set[int] = set(range(n))
    removed: Set[int] = set()
    fixed_ones: Set[int] = set()
    centers_per_iteration: List[int] = []

    # -- Phase 1 (Algorithms 7/8). -------------------------------------
    # Every carve of a round reads ``fixed_ones`` as it stood before the
    # round; the round's fixings join the same set afterwards.
    carve = partial(
        grow_and_carve_covering, instance, graph, fixed_ones=fixed_ones, cache=cache
    )
    cluster_rngs = spawn_rngs(phase_rng, max(1, len(clusters)))
    for i in range(1, params.t + 1):
        phase = f"phase1-iter{i}"
        seed_sets = sample_centers(
            clusters, cluster_rngs, partial(params.sampling_probability, i)
        )
        with _obs.span(f"covering.carve.{phase}"):
            merged = carve_round(
                graph, seed_sets, params.interval(i), remaining, carve, ledger, phase
            )
        fixed_ones |= merged.fixed_ones
        removed |= merged.removed
        # Carves actually executed, not sampled clusters (E12 accuracy).
        centers_per_iteration.append(merged.executed)

    chosen = set(fixed_ones)
    fixed_weight = instance.weight(fixed_ones)

    # -- Classify every constraint: satisfied / zone / residual. -------
    with _obs.span("covering.zones"):
        zones = [set(c) for c in graph.connected_components(within=removed)]
        # Per variable: its zone, -1 in the residual graph, -2 once fixed.
        label = np.full(n, -1, dtype=np.intp)
        for zidx, zone in enumerate(zones):
            label[list(zone)] = zidx
        label[list(fixed_ones)] = -2
        rows, labels = instance.entry_rows(), label[instance.indices]
        unsatisfied = (
            instance.row_loads(fixed_ones) < instance.bounds - FEASIBILITY_TOL
        )
        free = unsatisfied[rows] & (labels != -2)
        in_zone = free & (labels >= 0)
        zoned = instance.row_sums(in_zone) > 0
        residual_edges = np.flatnonzero(unsatisfied & ~zoned).tolist()
        # A zone constraint's free variables must all lie in that one zone.
        zone_of = np.full(instance.m, -1, dtype=np.intp)
        zone_of[rows[in_zone]] = labels[in_zone]
        stray = free & (labels != zone_of[rows])
        broken = np.flatnonzero(zoned & (instance.row_sums(stray) > 0))
        if len(broken):
            raise ValueError(
                f"constraint {broken[0]} spans zones/residual without being "
                "satisfied — carve isolation invariant broken"
            )
        zone_edges: Dict[int, List[int]] = {}
        for j in np.flatnonzero(zoned).tolist():
            zone_edges.setdefault(int(zone_of[j]), []).append(j)

        # -- Zone interiors: optimal completion per zone. ---------------
        max_zone_diameter = 0.0
        for zidx, edges in sorted(zone_edges.items()):
            sub = instance.restrict_to_edges(edges, fixed_ones=chosen)
            local = solve_covering_exact(
                sub, subset=zones[zidx] - chosen, cache=cache
            )
            chosen |= set(local.chosen)
            max_zone_diameter = max(
                max_zone_diameter, graph.weak_diameter(zones[zidx])
            )
        ledger.charge("zone-local-solve", int(max_zone_diameter))

    # -- Residual: Lemmas C.2 + C.3 with λ = ln(1 + ε/5). ---------------
    with _obs.span("covering.residual"):
        if residual_edges:
            residual_choice, cover = solve_covering_by_sparse_cover(
                instance,
                params.final_lambda,
                ntilde=params.ntilde,
                seed=final_rng,
                within=remaining,
                edge_indices=residual_edges,
                fixed_ones=chosen,
                cache=cache,
            )
            chosen |= residual_choice
            ledger.merge(cover.ledger, prefix="final-")

    require(
        instance.is_feasible(chosen),
        "covering output violates a constraint",
    )
    return CoveringResult(
        chosen=chosen,
        weight=instance.weight(chosen),
        ledger=ledger,
        fixed_weight=fixed_weight,
        num_zones=len(zones),
        residual_size=len(remaining),
        num_prep_clusters=len(clusters),
        centers_per_iteration=centers_per_iteration,
    )


def solve_covering(
    instance: CoveringInstance,
    eps: float,
    ntilde: Optional[int] = None,
    seed: SeedLike = None,
    cache: Optional[SolveCache] = None,
) -> CoveringResult:
    """Public entry point: :func:`chang_li_covering` with
    :meth:`CoveringParams.practical` constants."""
    ntilde = ntilde if ntilde is not None else max(instance.n, 2)
    params = CoveringParams.practical(eps, ntilde)
    return chang_li_covering(instance, params, seed=seed, cache=cache)
