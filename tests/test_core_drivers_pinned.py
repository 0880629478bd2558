"""Pinned outputs of every Chang–Li driver, as one SHA-256 digest.

The drivers (Theorem 1.1 LDD, the blackbox LDD, Theorem 1.2 packing,
Theorem 1.3 covering, the Section 4 alternative approach) share one
carve round and one cluster-weight preparation in
:mod:`repro.core.carve`.  A refactor of either must leave every
cluster, deleted set, chosen set, ledger and trace below unchanged.

The digest has to be independent of the installed scipy/networkx, so
no solver tie-break may reach it:

* ILP instances weigh variable ``v`` as ``2**v`` with at most 40
  variables, so every subset sum is exact and distinct in float64 and
  every local optimum is unique (the networkx blossom that solves
  bipartite MIS sub-balls has nothing to break ties on);
* every instance stays below the ``MILP_CUTOVER_*`` sizes, so HiGHS
  never runs;
* the LDD runs call no solver at all.

A change that moves the digest on purpose must say why in CHANGES.md.
"""

import hashlib
import json

from repro.core import (
    CoveringParams,
    LddParams,
    LddTrace,
    PackingParams,
    alternative_packing,
    blackbox_ldd,
    chang_li_covering,
    chang_li_ldd,
    chang_li_packing,
    ldd_with_ideal_diameter,
    low_diameter_decomposition,
)
from repro.graphs import cycle_graph, grid_graph, path_graph
from repro.ilp import (
    max_independent_set_ilp,
    max_matching_ilp,
    min_dominating_set_ilp,
    min_vertex_cover_ilp,
)

PINNED_DIGEST = "b453f12bee8c1a50d83ee9c697e1a091aceb09dc670e57dc2a7327486dbb3c71"


def _powers(count):
    return [2.0**v for v in range(count)]


def _ledger(ledger):
    return [[c.label, c.nominal, c.effective] for c in ledger.charges]


def _decomposition(dec):
    return {
        "clusters": sorted(sorted(c) for c in dec.clusters),
        "deleted": sorted(dec.deleted),
        "ledger": _ledger(dec.ledger),
    }


def _trace(trace):
    return [
        trace.centers_per_iteration,
        trace.deleted_per_iteration,
        trace.removed_per_iteration,
        trace.phase3_deleted,
        trace.residual_after_phase2,
    ]


def _ldd_records():
    records = []
    for name, graph, weights in (
        ("grid-16x16", grid_graph(16, 16), None),
        ("path-300-weighted", path_graph(300), [1.0 + v % 7 for v in range(300)]),
        ("cycle-150", cycle_graph(150), None),
    ):
        for seed in (0, 1):
            trace = LddTrace()
            params = LddParams.practical(0.3, graph.n, r_scale=0.1)
            dec = chang_li_ldd(graph, params, seed=seed, weights=weights, trace=trace)
            records.append(["ldd", name, seed, _decomposition(dec), _trace(trace)])
    graph = cycle_graph(150)
    dec = chang_li_ldd(
        graph, LddParams.practical(0.3, graph.n, r_scale=0.1), seed=2, skip_phase2=True
    )
    records.append(["ldd-skip-phase2", 2, _decomposition(dec)])
    graph = grid_graph(10, 10)
    dec = chang_li_ldd(
        graph,
        LddParams.practical(0.3, graph.n, r_scale=0.2),
        seed=3,
        execution_backend="mpc",
    )
    records.append(["ldd-mpc", 3, _decomposition(dec)])
    dec = chang_li_ldd(path_graph(12), LddParams.paper(0.4, 12), seed=0)
    records.append(["ldd-paper", 0, _decomposition(dec)])
    dec = low_diameter_decomposition(grid_graph(12, 12), 0.3, seed=4)
    records.append(["low-diameter-decomposition", 4, _decomposition(dec)])
    dec = ldd_with_ideal_diameter(path_graph(200), 0.4, seed=5)
    records.append(["ideal-diameter", 5, _decomposition(dec)])
    for seed in (0, 1):
        dec = blackbox_ldd(grid_graph(12, 12), 0.3, seed=seed)
        records.append(["blackbox", seed, _decomposition(dec)])
    return records


def _packing_record(name, instance, params, seed):
    res = chang_li_packing(instance, params, seed=seed)
    return [
        "packing",
        name,
        seed,
        sorted(res.chosen),
        res.weight,
        sorted(res.deleted),
        _ledger(res.ledger),
        res.num_components,
        res.num_prep_clusters,
        res.centers_per_iteration,
    ]


def _covering_record(name, instance, params, seed):
    res = chang_li_covering(instance, params, seed=seed)
    return [
        "covering",
        name,
        seed,
        sorted(res.chosen),
        res.weight,
        res.fixed_weight,
        _ledger(res.ledger),
        res.num_zones,
        res.residual_size,
        res.num_prep_clusters,
        res.centers_per_iteration,
    ]


def _ilp_records():
    grid = grid_graph(6, 6)
    mis = max_independent_set_ilp(grid, _powers(36))
    mis_cycle = max_independent_set_ilp(cycle_graph(40), _powers(40))
    small = grid_graph(5, 5)  # 40 edge variables: 2**e stays exact
    matching = max_matching_ilp(
        small, {e: 2.0**i for i, e in enumerate(small.edges())}
    ).instance
    dominating = min_dominating_set_ilp(grid, _powers(36))
    vertex_cover = min_vertex_cover_ilp(grid, _powers(36))
    records = []
    for seed in (0, 1):
        records.append(
            _packing_record("mis-grid", mis, PackingParams.practical(0.4, 36), seed)
        )
        records.append(
            _packing_record(
                "mis-cycle",
                mis_cycle,
                PackingParams.practical(0.4, 40, r_scale=0.1, t_cap=1),
                seed,
            )
        )
        records.append(
            _packing_record(
                "matching-grid",
                matching,
                PackingParams.practical(0.4, matching.n, r_scale=0.1, t_cap=1),
                seed,
            )
        )
        records.append(
            _covering_record(
                "ds-grid",
                dominating,
                CoveringParams.practical(0.4, 36, r_scale=0.1, t_cap=2),
                seed,
            )
        )
        records.append(
            _covering_record(
                "vc-grid",
                vertex_cover,
                CoveringParams.practical(0.4, 36, r_scale=0.1, t_cap=2),
                seed,
            )
        )
        alt = alternative_packing(mis, 0.4, seed=seed)
        records.append(
            [
                "alternative",
                seed,
                sorted(alt.chosen),
                alt.weight,
                _ledger(alt.ledger),
                alt.ensemble_weights,
            ]
        )
    return records


def _digest(records):
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_driver_outputs_pinned():
    records = _ldd_records() + _ilp_records()
    assert _digest(records) == PINNED_DIGEST
