"""The Elkin–Neiman low-diameter decomposition (Lemma C.1).

Each vertex samples ``T_v ~ Exp(λ)`` capped at ``4 ln ñ / λ`` and
broadcasts it; vertex ``v`` computes ``m_u(v) = T_u − dist(u, v)`` for
the sources it hears, deletes itself when the runner-up is within 1 of
the maximum, and otherwise joins the argmax source's cluster.

Guarantees (Lemma C.1): components have strong diameter ≤ ``8 ln ñ/λ``,
each vertex is deleted with probability ≤ ``1 − e^{−λ} + ñ^{−3}``, and
the algorithm takes ``4 ln ñ / λ`` rounds — but the bound on the
*number* of deletions holds only in expectation, which is precisely the
failure Claim C.1 exhibits and Theorem 1.1 repairs.

Two execution engines are provided:

* :func:`elkin_neiman_ldd` — fast path over the CSR flood kernel;
* :func:`elkin_neiman_message_ldd` — faithful synchronous message
  passing on :mod:`repro.local.engine`.

Fed identical shifts they produce identical outputs (property-tested),
which is the evidence that the fast path simulates the LOCAL model
exactly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.decomp.shifts import rounds_for_flood, sample_shifts, shift_cap
from repro.decomp.types import Decomposition
from repro.graphs.graph import Graph
from repro.local.engine import run_synchronous
from repro.local.gather import RoundLedger
from repro.local.node import Broadcast, MessageAlgorithm, NodeContext
from repro.util.rng import SeedLike
from repro.util.validation import check_positive, require


def elkin_neiman_ldd(
    graph: Graph,
    lam: float,
    ntilde: Optional[int] = None,
    seed: SeedLike = None,
    within: Optional[Set[int]] = None,
    shifts: Optional[Sequence[float]] = None,
) -> Decomposition:
    """Run Lemma C.1 on ``graph`` (optionally on the residual ``within``).

    ``shifts`` may be supplied to share randomness with the message
    engine (equivalence testing); otherwise they are sampled here from
    per-vertex private streams spawned off ``seed``.

    The flood runs on the vectorized delta-propagation kernel
    (:meth:`~repro.graphs.csr.CsrGraph.top2_shifted_flood`), whose
    top-2 records equal the keep-2 heap flood of
    :func:`~repro.decomp.shifts.shifted_flood` (property-tested).  A
    vertex is deleted when its runner-up is within 1 of its maximum
    (:func:`~repro.decomp.shifts.en_is_deleted`) and otherwise joins
    the argmax source's cluster.
    """
    check_positive("lam", lam)
    ntilde = ntilde if ntilde is not None else max(graph.n, 2)
    require(ntilde >= graph.n, f"ntilde={ntilde} below n={graph.n}")
    if shifts is None:
        shifts = sample_shifts(graph.n, lam, ntilde, seed)
    else:
        require(len(shifts) == graph.n, "need one shift per vertex")
    vertices = sorted(within) if within is not None else list(range(graph.n))
    ledger = RoundLedger()
    nominal = math.ceil(4.0 * math.log(ntilde) / lam)
    effective = rounds_for_flood([shifts[v] for v in vertices]) if vertices else 0
    ledger.charge("en-flood", nominal, effective)
    b1v, b1s, _, b2v, b2s, _ = graph.csr().top2_shifted_flood(
        list(shifts), within=within
    )
    is_deleted = (b2s >= 0) & (b2v >= b1v - 1.0)
    deleted: Set[int] = set()
    cluster_members: Dict[int, Set[int]] = {}
    for v in vertices:
        if is_deleted[v]:
            deleted.add(v)
        else:
            cluster_members.setdefault(int(b1s[v]), set()).add(v)
    centers = sorted(cluster_members)
    return Decomposition(
        clusters=[cluster_members[c] for c in centers],
        deleted=deleted,
        centers=list(centers),
        ledger=ledger,
    )


class _EnNode(MessageAlgorithm):
    """Message-passing Elkin–Neiman node program.

    Round 0: broadcast ``(self, T_self, dist=0)``.  Later rounds:
    forward newly learned tokens with decremented values while they
    stay ≥ −1.  When traffic quiesces, apply the deletion / join rule
    to the heard records.
    """

    def __init__(self, vertex: int, shift: float, deadline: int) -> None:
        super().__init__()
        self.vertex = vertex
        self.shift = shift
        # A node cannot detect quiescence locally (a token may still be
        # in flight elsewhere); it runs for the model-prescribed number
        # of rounds, which it can compute from ñ and λ.
        self.deadline = deadline
        self.heard: Dict[int, Tuple[float, int]] = {}
        self.fresh: List[Tuple[int, float, int]] = []

    def setup(self, ctx: NodeContext) -> None:
        self.heard[self.vertex] = (self.shift, 0)
        if self.shift - 1.0 >= -1.0:
            self.fresh = [(self.vertex, self.shift, 0)]
        else:
            self.fresh = []

    def generate(self, round_index: int):
        if not self.fresh:
            return {}
        payload = [
            (source, value - 1.0, dist + 1)
            for source, value, dist in self.fresh
        ]
        self.fresh = []
        return Broadcast(payload)

    def process(self, round_index: int, inbox) -> None:
        for tokens in inbox.values():
            for source, value, dist in tokens:
                if source in self.heard:
                    continue  # first arrival is via a shortest path
                self.heard[source] = (value, dist)
                if value - 1.0 >= -1.0:
                    self.fresh.append((source, value, dist))
        if round_index + 1 >= self.deadline:
            self.halt(self._decide())

    def _decide(self) -> Tuple[bool, int]:
        ordered = sorted(
            self.heard.items(), key=lambda kv: (kv[1][0], kv[0]), reverse=True
        )
        best_source, (best_value, _) = ordered[0]
        if len(ordered) >= 2 and ordered[1][1][0] >= best_value - 1.0:
            return (True, -1)
        return (False, best_source)


def elkin_neiman_message_ldd(
    graph: Graph,
    lam: float,
    ntilde: Optional[int] = None,
    seed: SeedLike = None,
    shifts: Optional[Sequence[float]] = None,
) -> Decomposition:
    """Lemma C.1 executed on the synchronous message-passing engine.

    Slower but model-faithful; used to validate the fast path and in
    the quickstart example.  The engine needs one extra "quiescence"
    round for nodes to notice silence, so its measured round count is
    the flood depth + O(1).
    """
    check_positive("lam", lam)
    ntilde = ntilde if ntilde is not None else max(graph.n, 2)
    if shifts is None:
        shifts = sample_shifts(graph.n, lam, ntilde, seed)
    shift_list = list(shifts)
    counter = iter(range(graph.n))
    # Every token dies within ⌊cap⌋ + 2 hops (values start below the cap
    # and decrease by 1 per hop until the −1 cutoff).
    deadline = int(math.floor(shift_cap(lam, ntilde))) + 2

    def factory() -> _EnNode:
        v = next(counter)
        return _EnNode(v, shift_list[v], deadline)

    result = run_synchronous(
        graph,
        factory,
        seed=seed,
        max_rounds=deadline + 2,
        anonymous=False,
        n_upper_bound=ntilde,
    )
    deleted: Set[int] = set()
    cluster_members: Dict[int, Set[int]] = {}
    for v, output in enumerate(result.outputs):
        is_deleted, center = output
        if is_deleted:
            deleted.add(v)
        else:
            cluster_members.setdefault(center, set()).add(v)
    centers = sorted(cluster_members)
    ledger = RoundLedger()
    ledger.charge(
        "en-message-flood",
        math.ceil(4.0 * math.log(ntilde) / lam),
        result.rounds,
    )
    return Decomposition(
        clusters=[cluster_members[c] for c in centers],
        deleted=deleted,
        centers=list(centers),
        ledger=ledger,
    )


def deletion_probability_bound(lam: float, ntilde: int) -> float:
    """Lemma C.1's per-vertex deletion probability ``1 - e^{-λ} + ñ^{-3}``."""
    return 1.0 - math.exp(-lam) + ntilde ** (-3.0)
