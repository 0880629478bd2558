"""Theorem 1.1: the high-probability low-diameter decomposition.

Three phases (Section 3.1):

1. **Sparsification** (Algorithm 2) — ``t = ⌈log₂(20/ε)⌉`` iterations of
   ball-growing-and-carving with geometrically increasing center
   probabilities ``p_{v,i} = 2^i ln ñ / n_v``.  After iteration ``i``
   every surviving vertex's relevant ball holds ``O(n / 2^i)`` vertices
   w.h.p., and each iteration deletes at most ``ε|V|/4t`` vertices.
2. **Dense-pocket clearing** (Algorithm 3) — one iteration with the
   boosted probability ``2^{t+1} ln ñ ln(20/ε)/n_v``, ensuring that
   w.h.p. only ``O(log n)`` dense components survive (the *bad
   vertices* of Definition 3.1).
3. **Finish** — the Elkin–Neiman decomposition with ``λ = ε/10`` on the
   residual graph; the sparsified neighborhoods keep the deletion
   indicators ``O(ε n / log n)``-dependent, so a bounded-dependence
   Chernoff bound (Lemma A.3) makes the total deletion bound hold with
   probability ``1 − 1/poly(n)`` — the property (C1) that in-expectation
   decompositions lack (Appendix C).

The optional ``weights`` argument measures everything (ball sizes,
layer sizes, deletions) in vertex weight instead of count — the
weighted generalization used by the Section 4 "alternative approach".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import repro.obs as _obs
from repro.core.carve import grow_and_carve
from repro.core.params import LddParams
from repro.decomp.elkin_neiman import elkin_neiman_ldd
from repro.decomp.types import Decomposition
from repro.graphs.graph import Graph
from repro.local.gather import RoundLedger
from repro.mpc import MpcConfig, MpcRun, check_execution_backend
from repro.util.rng import LazyRngStreams, SeedLike
from repro.util.validation import require


@dataclass
class LddTrace:
    """Diagnostics of one run (consumed by tests and the E12 ablations)."""

    centers_per_iteration: List[int] = field(default_factory=list)
    deleted_per_iteration: List[int] = field(default_factory=list)
    removed_per_iteration: List[int] = field(default_factory=list)
    phase3_deleted: int = 0
    residual_after_phase2: int = 0


def chang_li_ldd(
    graph: Graph,
    params: LddParams,
    seed: SeedLike = None,
    weights: Optional[Sequence[float]] = None,
    skip_phase2: bool = False,
    trace: Optional[LddTrace] = None,
    kernel_workers: Optional[int] = None,
    execution_backend: str = "local",
    mpc=None,
) -> Decomposition:
    """Run the Theorem 1.1 decomposition with the given parameters.

    Returns a :class:`~repro.decomp.types.Decomposition` whose clusters
    are the connected components of the non-deleted vertices (mutually
    non-adjacent by construction; weak diameter ``O(t R)`` by Lemma
    3.2).  ``skip_phase2`` is an ablation hook (E12): it degrades the
    w.h.p. guarantee exactly as the analysis predicts.

    Every BFS-shaped step (the ``n_v`` estimation, ball growing, the
    Elkin–Neiman flood and the final components) runs on the batched
    numpy kernels of :mod:`repro.graphs.csr`.

    ``kernel_workers`` shards the ``n_v`` estimation's source chunks —
    the wall-clock bottleneck of every scale trial — over worker
    processes via :mod:`repro.graphs.parallel`; the decomposition is
    bit-identical at any worker count.  ``None`` resolves through
    ``REPRO_KERNEL_WORKERS`` (default serial).

    ``execution_backend`` selects the third parallelism level:
    ``"local"`` (default) keeps the whole graph on one box, ``"mpc"``
    runs the BFS-shaped steps (the ``n_v`` estimation and every carve
    gather) over the partitioned ranks of :mod:`repro.mpc`, metering
    per-round communication — partitions are bit-identical to
    ``"local"`` at any rank count.  ``mpc`` is either an
    :class:`~repro.mpc.MpcConfig` (a run is started on ``graph.csr()``
    and closed on exit) or an already-started :class:`~repro.mpc.MpcRun`
    on the same graph (kept open so the caller can read ``run.meter``
    afterwards); ``None`` means ``MpcConfig()`` (a single rank).  Phase
    3 (Elkin–Neiman and the final components) stays coordinator-local —
    see the execution-backend matrix in ``src/repro/exp/README.md``.
    """
    check_execution_backend(execution_backend)
    n = graph.n
    require(
        weights is None or len(weights) == n, "need one weight per vertex"
    )
    mpc_run: Optional[MpcRun] = None
    owns_run = False
    if execution_backend == "mpc":
        config = MpcConfig() if mpc is None else mpc
        if isinstance(config, MpcConfig):
            mpc_run = config.start(graph.csr()) if n else None
            owns_run = mpc_run is not None
        else:
            mpc_run = config
    ledger = RoundLedger()
    # Per-vertex private streams, derived lazily: stream v is
    # bit-identical to the historical eager ``spawn_rngs(seed, 2n+4)[v]``
    # but phase 2 only pays for the residual vertices it actually
    # samples (eager spawning alone cost ~3 s at n = 10^5).
    rngs = LazyRngStreams(seed, 2 * n + 4)
    remaining: Set[int] = set(range(n))
    deleted: Set[int] = set()

    try:
        # -- Estimate n_v = |N^{4tR}(v)| (Algorithm 2, line 1). -------
        # The hot path: one batched frontier expansion replaces n
        # single-source gathers.
        estimates: Dict[int, float] = {}
        max_depth = 0
        with _obs.span("ldd.estimate_nv"):
            if n:
                if mpc_run is not None:
                    sizes, depths = mpc_run.all_ball_sizes(
                        params.estimate_radius, weights=weights
                    )
                else:
                    sizes, depths = graph.csr().all_ball_sizes(
                        params.estimate_radius,
                        weights=weights,
                        kernel_workers=kernel_workers,
                    )
                estimates = {v: float(sizes[v]) for v in range(n)}
                max_depth = int(depths.max())
        ledger.charge("estimate-nv", params.estimate_radius, max_depth)

        # -- Phase 1: t sparsification iterations (Algorithm 2). ------
        for i in range(1, params.t + 1):
            interval = params.interval(i)
            centers = [
                v
                for v in sorted(remaining)
                if rngs[v].random()
                < params.sampling_probability(i, max(1, int(estimates[v])))
            ]
            _apply_carves(
                graph,
                centers,
                interval,
                remaining,
                deleted,
                ledger,
                f"phase1-iter{i}",
                weights,
                trace,
                mpc_run,
            )

        # -- Phase 2: one boosted iteration (Algorithm 3). ------------
        if not skip_phase2:
            interval = params.phase2_interval()
            centers = [
                v
                for v in sorted(remaining)
                if rngs[n + v].random()
                < params.phase2_probability(max(1, int(estimates[v])))
            ]
            _apply_carves(
                graph,
                centers,
                interval,
                remaining,
                deleted,
                ledger,
                "phase2",
                weights,
                trace,
                mpc_run,
            )
        if trace is not None:
            trace.residual_after_phase2 = len(remaining)
        _obs.gauge("ldd.residual_after_phase2", len(remaining))

        # -- Phase 3: Elkin–Neiman on the residual graph. --------------
        # Coordinator-local on either execution backend (the EN flood
        # and the components are not metered MPC rounds; see README).
        if remaining:
            with _obs.span("ldd.phase3_en"):
                en = elkin_neiman_ldd(
                    graph,
                    params.phase3_lambda,
                    ntilde=params.ntilde,
                    seed=rngs[2 * n],
                    within=remaining,
                )
            deleted |= en.deleted
            ledger.merge(en.ledger, prefix="phase3-")
            if trace is not None:
                trace.phase3_deleted = len(en.deleted)
            _obs.count("ldd.phase3_deleted", len(en.deleted))

        with _obs.span("ldd.components"):
            clusters = [
                set(c)
                for c in graph.connected_components(
                    within=set(range(n)) - deleted
                )
            ]
    finally:
        if owns_run and mpc_run is not None:
            mpc_run.close()
    return Decomposition(
        clusters=clusters,
        deleted=deleted,
        centers=[None] * len(clusters),
        ledger=ledger,
    )


def low_diameter_decomposition(
    graph: Graph,
    eps: float,
    ntilde: Optional[int] = None,
    seed: SeedLike = None,
    profile: str = "practical",
    kernel_workers: Optional[int] = None,
    execution_backend: str = "local",
    mpc=None,
    **profile_kwargs,
) -> Decomposition:
    """Convenience entry point: build params, run :func:`chang_li_ldd`.

    ``profile`` selects :meth:`LddParams.paper` or
    :meth:`LddParams.practical` (default; extra keyword arguments are
    forwarded to the profile constructor).  ``kernel_workers``,
    ``execution_backend`` and ``mpc`` are forwarded to
    :func:`chang_li_ldd`.
    """
    ntilde = ntilde if ntilde is not None else max(graph.n, 2)
    if profile == "paper":
        params = LddParams.paper(eps, ntilde)
    elif profile == "practical":
        params = LddParams.practical(eps, ntilde, **profile_kwargs)
    else:
        raise ValueError(f"unknown profile {profile!r}")
    return chang_li_ldd(
        graph,
        params,
        seed=seed,
        kernel_workers=kernel_workers,
        execution_backend=execution_backend,
        mpc=mpc,
    )


def _apply_carves(
    graph: Graph,
    centers: List[int],
    interval: Tuple[int, int],
    remaining: Set[int],
    deleted: Set[int],
    ledger: RoundLedger,
    label: str,
    weights: Optional[Sequence[float]],
    trace: Optional[LddTrace],
    mpc_run: Optional[MpcRun] = None,
) -> None:
    """Run all centers' carves against the same residual snapshot.

    Merge rule (Section 3.1.2): a vertex deleted by any execution is
    deleted, even if another execution removed it.  The shared snapshot
    is converted to a boolean mask once and reused by every carve's
    BFS.  With ``mpc_run``, every carve's gather runs
    as metered partitioned BFS rounds instead of the single-box kernel.
    """
    removed_now: Set[int] = set()
    deleted_now: Set[int] = set()
    max_depth = 0
    executed = 0
    with _obs.span(f"ldd.carve.{label}"):
        snapshot = remaining
        if centers:
            snapshot = graph.csr().residual_mask(remaining)
        for center in centers:
            if center not in remaining:
                continue  # carved away by a parallel execution's snapshot merge
            executed += 1
            outcome = grow_and_carve(
                graph,
                [center],
                interval,
                snapshot,
                weights=weights,
                mpc=mpc_run,
            )
            removed_now |= outcome.removed
            deleted_now |= outcome.deleted
            max_depth = max(max_depth, outcome.depth)
    removed_now -= deleted_now  # deleted wins
    deleted |= deleted_now
    remaining -= removed_now
    remaining -= deleted_now
    ledger.charge(label, 2 * interval[1], 2 * max_depth)
    if trace is not None:
        # Carves actually executed — not the sampled-center count, which
        # would overstate work when a center was already carved away.
        trace.centers_per_iteration.append(executed)
        trace.deleted_per_iteration.append(len(deleted_now))
        trace.removed_per_iteration.append(len(removed_now))
    # Satellite of the LddTrace diagnostics: the same totals flow into
    # persisted rows whenever a collector is installed, trace or not.
    _obs.count("ldd.carve.executed", executed)
    _obs.count("ldd.carve.deleted", len(deleted_now))
    _obs.count("ldd.carve.removed", len(removed_now))
