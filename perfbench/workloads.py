"""The benchmark workloads: inputs, the timed call, and its check.

Each workload is a fixed list of ops derived from the workload seed.
An op is one public solver call on one prepared instance; the caller
issues them one at a time (closed loop, one client).  ``setup`` builds
everything an op reads (instances, CSR arrays, reference optima) so
that the timed region holds the solver call alone; ``check`` runs
after the timed region and raises on any violated guarantee.

Why each workload exists (which layer it stresses) is recorded in
``WHY`` and in the README next to this file.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.core import low_diameter_decomposition, solve_covering, solve_packing
from repro.graphs import grid_graph
from repro.graphs.generators import random_regular
# Entry points the traced run wraps are called through their module, so
# the wrapper installed on the module attribute is the one that runs.
from repro.ilp import certificates, mwu
from repro.ilp.exact import solve_covering_exact
from repro.ilp.problems import (
    max_independent_set_ilp,
    max_matching_ilp,
    min_dominating_set_ilp,
    min_vertex_cover_ilp,
)
from repro.util.rng import ensure_rng

#: Approximation parameter of the Chang–Li workloads (Theorems 1.1–1.3).
EPS = 0.3
#: Approximation parameter of the certified MWU workload.
EPS_MWU = 0.1

#: The benchmark's workloads, each built from one or more parts below.
#: ``ilp`` merges the packing, covering and MWU parts: on the reference
#: VM, host speed drifts in states lasting 25-60 s, and only runs of
#: about a minute with many short ops were steady enough.  A full
#: measurement (4 + 22 runs per workload in under an hour) allows runs
#: that long for two workloads, not four.
PARTS = {
    "ldd": ("ldd",),
    "ilp": ("packing", "covering", "mwu"),
}

WHY = {
    "ldd": "Theorem 1.1 LDD on grids and an expander; the CSR n_v ball sweep dominates and no ILP layer runs",
    "ilp": "Theorems 1.2/1.3 on grid MIS, matching, dominating set, vertex cover, plus certified MWU; exact local "
           "solves and instance restriction dominate, no n_v sweep runs",
}


@dataclass
class Case:
    """One prepared instance that ops of a workload run on."""

    label: str
    n: int  # vertices (ldd) or variables (ILP) credited to throughput
    instance: Any
    reference: float  # OPT for packing/covering; unused for ldd/mwu
    solve: Callable[[Any, int], Any]
    check: Callable[["Case", Any], Tuple[float, str]]


@dataclass(frozen=True)
class Op:
    case: Case
    seed: int


# ----------------------------------------------------------------------
# Sizes of each part.  "full" is what BENCHMARK.json measures; "smoke"
# is the tiny variant the smoke check runs.  ``ops`` gives, per case in
# setup order, how many ops (each with its own algorithm seed) the op
# list holds.  Many short ops keep a run steady: they average out the
# algorithm seed (per-op time varies with it by a CV of 0.06-0.3,
# covering most), while a pass stays short enough that two fit in a
# run even when the host is slow.
# ----------------------------------------------------------------------
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "ldd": {
        "full": {"grid": 60, "rr_n": 8000, "ops": (5, 5)},
        "smoke": {"grid": 16, "rr_n": 400, "ops": (1, 1)},
    },
    "packing": {
        "full": {"mis": (10, 12), "match": 10, "ops": (7, 6, 4)},
        "smoke": {"mis": (5, 6), "match": 4, "ops": (1, 1, 1)},
    },
    "covering": {
        "full": {"ds": (8,), "vc": 10, "ops": (18, 14)},
        "smoke": {"ds": (7,), "vc": 5, "ops": (1, 1)},
    },
    # ``rrs_k`` random row-sparse problems of each kind, so that a run
    # averages over instances drawn from the seed, not just one.
    "mwu": {
        "full": {"rrs_n": 2000, "rrs_k": 3, "grid": 50, "ops": (1,) * 6 + (3, 3)},
        "smoke": {"rrs_n": 300, "rrs_k": 1, "grid": 10, "ops": (1, 1, 1, 1)},
    },
}


def derive_seed(*parts: int) -> int:
    """A 32-bit seed from integer parts (stable across platforms)."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def _digest(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# ldd — Theorem 1.1
# ----------------------------------------------------------------------
def _ldd_solve(graph, seed: int):
    return low_diameter_decomposition(graph, EPS, seed=seed)


def _ldd_check(case: Case, dec) -> Tuple[float, str]:
    graph = case.instance
    n = graph.n
    label = np.full(n, -1, dtype=np.int64)
    for idx, cluster in enumerate(dec.clusters):
        members = np.fromiter(cluster, dtype=np.int64, count=len(cluster))
        if (label[members] != -1).any():
            raise AssertionError("clusters overlap")
        label[members] = idx
    deleted = np.fromiter(dec.deleted, dtype=np.int64, count=len(dec.deleted))
    if (label[deleted] != -1).any():
        raise AssertionError("a deleted vertex is also clustered")
    if int((label != -1).sum()) + len(deleted) != n:
        raise AssertionError("clusters and deleted set do not cover every vertex")
    csr = graph.csr()
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
    a, b = label[src], label[csr.indices]
    if ((a != -1) & (b != -1) & (a != b)).any():
        raise AssertionError("two clusters are adjacent")
    frac = len(deleted) / n
    if frac > EPS:
        raise AssertionError(f"deleted fraction {frac:.4f} exceeds eps={EPS}")
    clusters = sorted(tuple(sorted(c)) for c in dec.clusters)
    return 1.0 / (1.0 - frac), _digest(clusters, sorted(dec.deleted))


def _setup_ldd(seed: int, size: Dict[str, Any]) -> List[Case]:
    grid = grid_graph(size["grid"], size["grid"])
    rr = random_regular(size["rr_n"], 3, ensure_rng(derive_seed(seed, 1)))
    cases = []
    for label, graph in ((f"grid-{size['grid']}", grid), (f"rr3-{size['rr_n']}", rr)):
        graph.csr()
        cases.append(Case(label, graph.n, graph, 0.0, _ldd_solve, _ldd_check))
    return cases


# ----------------------------------------------------------------------
# packing — Theorem 1.2
# ----------------------------------------------------------------------
def _packing_solve(instance, seed: int):
    return solve_packing(instance, EPS, seed=seed)


def _packing_check(case: Case, res) -> Tuple[float, str]:
    inst = case.instance
    chosen = set(res.chosen)
    if not inst.is_feasible(chosen):
        raise AssertionError("packing output is infeasible")
    weight = inst.weight(chosen)
    if not math.isclose(weight, res.weight):
        raise AssertionError(f"reported weight {res.weight} != recomputed {weight}")
    if weight > case.reference + 1e-9:
        raise AssertionError(f"weight {weight} exceeds OPT {case.reference}")
    if weight < (1.0 - EPS) * case.reference - 1e-9:
        raise AssertionError(f"weight {weight} below (1-eps)*OPT={case.reference}")
    return case.reference / weight, _digest(sorted(chosen))


def _prepare_instance(inst) -> None:
    """Fill the per-instance memos an op would otherwise build once."""
    inst.hypergraph().primal_graph().csr()
    inst.fingerprint()


def _setup_packing(seed: int, size: Dict[str, Any]) -> List[Case]:
    cases = []
    for side in size["mis"]:
        inst = max_independent_set_ilp(grid_graph(side, side))
        cases.append(Case(f"mis-grid-{side}", inst.n, inst, float(math.ceil(side * side / 2)),
                          _packing_solve, _packing_check))
    side = size["match"]
    inst = max_matching_ilp(grid_graph(side, side)).instance
    cases.append(Case(f"matching-grid-{side}", inst.n, inst, float(side * side // 2),
                      _packing_solve, _packing_check))
    for case in cases:
        _prepare_instance(case.instance)
    return cases


# ----------------------------------------------------------------------
# covering — Theorem 1.3
# ----------------------------------------------------------------------
def _covering_solve(instance, seed: int):
    return solve_covering(instance, EPS, seed=seed)


def _covering_check(case: Case, res) -> Tuple[float, str]:
    inst = case.instance
    chosen = set(res.chosen)
    if not inst.is_feasible(chosen):
        raise AssertionError("covering output is infeasible")
    weight = inst.weight(chosen)
    if not math.isclose(weight, res.weight):
        raise AssertionError(f"reported weight {res.weight} != recomputed {weight}")
    if weight < case.reference - 1e-9:
        raise AssertionError(f"weight {weight} below OPT {case.reference}")
    if weight > (1.0 + EPS) * case.reference + 1e-9:
        raise AssertionError(f"weight {weight} above (1+eps)*OPT={case.reference}")
    return weight / case.reference, _digest(sorted(chosen))


def _setup_covering(seed: int, size: Dict[str, Any]) -> List[Case]:
    cases = []
    for side in size["ds"]:
        inst = min_dominating_set_ilp(grid_graph(side, side))
        opt = solve_covering_exact(inst).weight  # reference optimum, exact tier
        cases.append(Case(f"ds-grid-{side}", inst.n, inst, opt, _covering_solve, _covering_check))
    side = size["vc"]
    inst = min_vertex_cover_ilp(grid_graph(side, side))
    # König: the grid is bipartite with a perfect (or near-perfect) matching.
    cases.append(Case(f"vc-grid-{side}", inst.n, inst, float(side * side // 2),
                      _covering_solve, _covering_check))
    for case in cases:
        _prepare_instance(case.instance)
    return cases


# ----------------------------------------------------------------------
# mwu — certified (1+eps) MWU tier
# ----------------------------------------------------------------------
def _mwu_packing_solve(problem, seed: int):
    return mwu.solve_packing_mwu(problem, EPS_MWU, seed=seed)


def _mwu_covering_solve(problem, seed: int):
    return mwu.solve_covering_mwu(problem, EPS_MWU, seed=seed)


def _mwu_check(case: Case, sol) -> Tuple[float, str]:
    obj = case.instance
    if isinstance(obj, certificates.MwuProblem):
        problem = obj
        x = np.zeros(problem.n)
        x[sorted(sol.chosen)] = 1.0
        loads = problem.matrix.dot(x)
        ok = (loads <= problem.bounds + 1e-9) if problem.kind == "packing" else (
            loads >= problem.bounds - 1e-9)
        feasible = bool(ok.all())
    else:
        problem = certificates.MwuProblem.from_instance(obj)
        feasible = obj.is_feasible(set(sol.chosen))
    if not feasible:
        raise AssertionError("rounded integral solution is infeasible")
    report = certificates.verify_certificate(
        problem, sol.certificate, require_gap=1.0 + EPS_MWU
    ).raise_if_invalid()
    return report.gap, _digest(sorted(sol.chosen), sol.certificate.dual_bound)


def _setup_mwu(seed: int, size: Dict[str, Any]) -> List[Case]:
    n = size["rrs_n"]
    cases = []
    for k in range(size["rrs_k"]):
        pack = mwu.random_row_sparse_problem("packing", n, seed=derive_seed(seed, 2, k))
        cover = mwu.random_row_sparse_problem("covering", n, seed=derive_seed(seed, 3, k))
        cases += [
            Case(f"rrs-packing-{n}", n, pack, 0.0, _mwu_packing_solve, _mwu_check),
            Case(f"rrs-covering-{n}", n, cover, 0.0, _mwu_covering_solve, _mwu_check),
        ]
    grid = grid_graph(size["grid"], size["grid"])
    mis = max_independent_set_ilp(grid)
    mds = min_dominating_set_ilp(grid)
    return cases + [
        Case(f"mis-grid-{size['grid']}", mis.n, mis, 0.0, _mwu_packing_solve, _mwu_check),
        Case(f"mds-grid-{size['grid']}", mds.n, mds, 0.0, _mwu_covering_solve, _mwu_check),
    ]


_SETUP = {
    "ldd": _setup_ldd,
    "packing": _setup_packing,
    "covering": _setup_covering,
    "mwu": _setup_mwu,
}

NAMES = tuple(PARTS)


def setup(workload: str, seed: int, size: str = "full") -> List[Case]:
    """Build every case of ``workload`` for ``seed`` at ``size``."""
    return [case for part in PARTS[workload] for case in _SETUP[part](seed, SIZES[part][size])]


def op_list(workload: str, seed: int, cases: List[Case], size: str = "full") -> List[Op]:
    """The workload's fixed op list: each case with its own derived seeds."""
    counts = [count for part in PARTS[workload] for count in SIZES[part][size]["ops"]]
    return [
        Op(case, derive_seed(seed, 100 + i, k))
        for i, (case, count) in enumerate(zip(cases, counts, strict=True))
        for k in range(count)
    ]


def warmup(workload: str, seed: int) -> None:
    """One untimed op per case kind on the tiny inputs.

    Pulls in lazily imported solver modules (HiGHS, networkx blossom)
    and first-call allocations so the first timed op does not pay them.
    """
    for case in setup(workload, seed, "smoke"):
        case.check(case, case.solve(case.instance, derive_seed(seed, 7)))
