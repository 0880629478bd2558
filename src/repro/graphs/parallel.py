"""Process-parallel execution of the chunked CSR kernels.

The batched kernels in :mod:`repro.graphs.csr` already split their
source sets into independent chunks (64-source words packed per uint64
column); the serial loop just runs the chunks one after another.  On
multi-hour sweeps — the ``geometric-100000`` ball estimation is the
canonical case — the bitset work of a chunk is near single-core memory
bandwidth, so the remaining lever is running chunks on *different
cores*.  This module does exactly that and nothing more:

* the CSR arrays (``indptr``/``indices`` and, when eligible, the
  degree-padded adjacency table) are published once per graph through
  :class:`repro.transport.SharedArrayExport` — workers attach by name
  and rebuild a :class:`~repro.graphs.csr.CsrGraph` view with **zero
  copies** of the adjacency structure;
* worker processes live in cached :class:`ProcessPoolExecutor` pools
  (spawn context: no fork/threads hazards, portable start-up) and run
  the *identical* per-chunk kernel code the serial loop runs;
* per-chunk results are merged **in chunk order**, so sizes/depths
  (and every other kernel output) are bit-identical to the serial path
  at any worker count.

The generic plumbing — segment export/attach with the bounded LRU
cache, the cached spawn pools, the ordered drain with cancel-on-error
and broken-pool recovery — lives in :mod:`repro.transport` (shared
with the partitioned-execution layer, :mod:`repro.mpc`); this module
keeps only the CSR-specific glue: which arrays to publish, how to
rebuild a graph from them, and the per-chunk kernel dispatch.

Worker-count resolution (:func:`repro.transport.resolve_kernel_workers`,
which the kernels call directly): an explicit ``kernel_workers=`` argument
wins and is honoured as given (tests force 2/4 workers on 1-core boxes
— oversubscription changes wall-clock, not results); otherwise the
``REPRO_KERNEL_WORKERS`` environment variable provides the default,
capped at ``os.cpu_count()``; unset means 1 (serial).  The
:mod:`repro.exp` runner coordinates this knob with its trial sharding
so ``trials x kernel_workers`` never oversubscribes the machine (see
``runner.coordinate_parallelism``).
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.obs as _obs
from repro.transport import SharedArrayExport, attach_shared, run_ordered

__all__ = ["run_chunk_tasks", "shared_spec"]

#: Fields of a CsrGraph published through shared memory.  Everything
#: else (`degrees`, `_gather_index`, `_starts`, `_zero_degree`) is
#: derived from these in O(n + m) on first attach.
_SHARED_FIELDS = ("indptr", "indices", "padded")


def shared_spec(csr) -> Dict[str, Any]:
    """The (cached) shared-memory spec of a :class:`CsrGraph`.

    ``spec`` keeps its historical shape — ``{"token", "n", "nnz",
    "has_padded", "arrays": {field: (shm_name, dtype_str, shape)}}`` —
    with the export itself handled by
    :class:`repro.transport.SharedArrayExport`.  The export lives as
    long as its :class:`CsrGraph` (a ``weakref.finalize`` unlinks the
    segments when the graph is collected or the interpreter exits).
    """
    export = csr._shared
    if export is None:
        arrays: Dict[str, np.ndarray] = {
            "indptr": csr.indptr,
            "indices": csr.indices,
        }
        # Materialize the padded-adjacency decision in the parent so
        # every worker replays it instead of re-deciding (the outputs
        # are identical either way; sharing skips the per-worker build).
        padded = csr._padded_adjacency()
        if padded is not None:
            arrays["padded"] = padded
        export = SharedArrayExport(
            arrays,
            meta={
                "n": csr.n,
                "nnz": csr.nnz,
                "has_padded": padded is not None,
            },
        )
        csr._shared = export
        weakref.finalize(csr, export.close)
    return export.spec


def _attach(spec: Dict[str, Any]):
    """Worker-side CsrGraph over the parent's shared arrays (cached)."""
    from repro.graphs.csr import CsrGraph

    def build(arrays: Dict[str, np.ndarray]):
        return CsrGraph._from_shared_arrays(
            spec["n"],
            arrays["indptr"],
            arrays["indices"],
            arrays.get("padded"),
        )

    return attach_shared(spec, build)


def _run_kernel_chunk(spec: Dict[str, Any], kind: str, common: tuple, payload):
    """One chunk of kernel work, executed in a worker process.

    Every branch calls the *same* per-chunk helper the serial loop in
    :mod:`repro.graphs.csr` calls, so per-chunk outputs are bit-equal
    to the serial computation by construction.
    """
    with _obs.span("parallel.attach"):
        csr = _attach(spec)
    if kind == "ball":
        radius, weights, mask = common
        s_chunk = payload
        sizes = np.zeros(len(s_chunk), dtype=np.float64)
        depths = np.zeros(len(s_chunk), dtype=np.int64)
        csr._ball_chunk(s_chunk, radius, weights, mask, sizes, depths)
        return sizes, depths
    if kind == "dist":
        radius, mask = common
        return csr._distances_chunk(payload, radius, mask)
    if kind == "ecc":
        lo, hi = payload
        return csr._ecc_chunk(lo, hi)
    if kind == "power":
        (k,) = common
        return csr._power_chunk(payload, k)
    raise ValueError(f"unknown kernel task kind {kind!r}")


def _kernel_task(
    spec: Dict[str, Any],
    kind: str,
    common: tuple,
    payload,
    traced: bool = False,
) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """Worker entry point: ``(chunk result, obs export | None)``.

    When the parent ran the dispatch under a :mod:`repro.obs`
    collector, ``traced`` is set and the chunk runs under a local
    worker collector whose aggregate tables (spans keyed under
    ``parallel.chunk.<kind>`` — the per-worker chunk wall) travel back
    through the existing result channel.  Tracing wraps *around*
    :func:`_run_kernel_chunk`; the chunk computation itself is
    identical either way.
    """
    if not traced:
        return _run_kernel_chunk(spec, kind, common, payload), None
    with _obs.collect() as collector:
        with _obs.span(f"parallel.chunk.{kind}"):
            result = _run_kernel_chunk(spec, kind, common, payload)
    return result, collector.export()


def run_chunk_tasks(
    csr,
    kind: str,
    payloads: Sequence[Any],
    common: tuple,
    workers: int,
) -> List[Any]:
    """Fan chunk payloads out over ``workers`` processes, in order.

    Results come back in payload order — the caller merges them exactly
    where the serial loop would have written them, which is what makes
    the parallel path bit-identical at any worker count.  Dispatch,
    cancellation on an escaping exception (worker fault, trial-timeout
    signal) and broken-pool recovery are
    :func:`repro.transport.run_ordered`'s.

    When this process is tracing (:func:`repro.obs.enabled`), workers
    trace their chunks too and the parent absorbs their span/counter
    exports **in chunk order** under the current span path — the float
    accumulation order is pinned, so merged tables are deterministic at
    any worker count.
    """
    traced = _obs.enabled()
    with _obs.span("parallel.export"):
        spec = shared_spec(csr)
    with _obs.span("parallel.merge_wait"):
        outcomes = run_ordered(
            workers,
            _kernel_task,
            [(spec, kind, common, payload, traced) for payload in payloads],
        )
    collector = _obs.active()
    if collector is not None:
        for _result, export in outcomes:
            collector.absorb(export)
    return [result for result, _export in outcomes]
