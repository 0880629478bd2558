"""Batched CSR graph kernels — the numpy fast path for BFS-shaped work.

Profiling the Theorem 1.1 decomposition shows ~95% of its runtime in
per-vertex ``gather_ball`` calls that estimate ``n_v = |N^{4tR}(v)|``.
Every one of those gathers walks the same adjacency structure, so this
module stores the graph once in compressed-sparse-row form
(``indptr``/``indices`` arrays) and exposes *batched* primitives that
amortize the traversal across all sources simultaneously:

* :meth:`CsrGraph.all_ball_sizes` — ball sizes (optionally weighted)
  from every source at once, via bit-packed frontier expansion: the
  per-source visited sets are packed 8 sources per byte and one numpy
  ``bitwise_or.reduceat`` per BFS level advances *all* frontiers.
* :meth:`CsrGraph.bfs_distances` — single multi-source BFS with a
  sparse (index-array) frontier; work is proportional to the edges
  incident to the frontier, like the pure-Python BFS, but at C speed.
* :meth:`CsrGraph.distances_from` — batched distance matrix.
* :meth:`CsrGraph.power` / :meth:`CsrGraph.connected_components` /
  :meth:`CsrGraph.weak_diameter` — vectorized versions of the
  corresponding :class:`~repro.graphs.graph.Graph` methods.
* :meth:`CsrGraph.top2_shifted_flood` — the Elkin–Neiman communication
  core (top-2 records of ``m_u(v) = T_u − dist(u, v)``) as a fixpoint
  iteration over array states.

These kernels are the only production implementation of the graph
primitives: :class:`~repro.graphs.graph.Graph`'s metric methods, the
radius gather of :func:`repro.local.gather.gather_ball` and every
decomposition driver run on them.  Each kernel is observationally
equivalent to a pure-Python oracle in :mod:`repro.graphs.reference`
(property-tested in ``tests/test_graphs_csr.py``).  Instances are
cached on the owning :class:`Graph` via :meth:`Graph.csr`, so repeated
kernel calls pay the CSR construction once.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

import repro.obs as _obs
from repro.graphs import parallel as _parallel
from repro.transport import resolve_kernel_workers
from repro.util.validation import require

#: Tokens in the shifted flood stop propagating below this value
#: (mirrors ``repro.decomp.shifts.PROPAGATION_CUTOFF``; duplicated here
#: to keep the graphs layer free of decomp imports).
_CUTOFF = -1.0

#: Soft cap on the per-round gather buffer (bytes) used to pick the
#: source-chunk width of the packed batched kernels.
_GATHER_BUDGET_BYTES = 64 << 20

#: The degree-padded neighbor table is built only while its footprint
#: stays within this factor of the CSR arrays; skewed degree
#: distributions (stars, hubs) fall back to the segmented reduceat.
_PAD_WASTE_FACTOR = 8

#: Relative cost of touching one frontier-incident edge in the sparse
#: early phase of :meth:`CsrGraph._ball_chunk` versus one uint64 word
#: in a packed full-width pass.  A BFS level stays on sparse index
#: frontiers while ``factor * frontier_edges < nnz * words`` and
#: switches to the packed sweep once the frontiers densify.  ``inf``
#: forces the packed sweep from level 0 (the historical behaviour);
#: ``0`` keeps every level sparse — both produce bit-identical sizes
#: and depths (tests exercise the forced settings).  256 is the
#: empirical break-even on this container: the sort-dedupe + scatter
#: per candidate pair costs ~2 orders more than a packed word, so only
#: genuinely tiny early frontiers are worth running sparse (n = 10^5
#: random 3-regular, radius-capped sweep: 37 s -> 31 s; the
#: run-to-saturation sweep is level-bound in its dense middle and gains
#: ~2%).
_SPARSE_COST_FACTOR = 256.0

#: Bit patterns of every byte value, MSB first — matches the packed
#: column layout of :meth:`CsrGraph._seed_packed` / ``np.unpackbits``.
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).astype(np.float64)


def _column_weights(packed: np.ndarray, weights: Optional[np.ndarray]) -> np.ndarray:
    """Per-column totals of a packed (n, W) uint64 block.

    Unweighted, each column's bit count; weighted, the sum of
    ``weights`` over its set bits.  The unweighted path histograms byte
    values per byte column and expands through the 256×8 bit table,
    which avoids materializing the (n, 64 W) boolean matrix that
    dominated the original kernel's epilogue at chunk width.
    """
    byte_view = np.ascontiguousarray(packed).view(np.uint8)
    rows, nbytes = byte_view.shape
    if weights is not None:
        unpacked = np.unpackbits(byte_view, axis=-1).astype(bool)
        return weights @ unpacked
    totals = np.empty(nbytes * 8, dtype=np.float64)
    # Block the histogram so the int64 index scratch stays ~32 MB even
    # for full-width chunks of 10^5-vertex graphs.
    block = max(1, (4 << 20) // max(1, rows))
    for lo in range(0, nbytes, block):
        cols = byte_view[:, lo : lo + block].astype(np.int64)
        cols += np.arange(cols.shape[1], dtype=np.int64)[None, :] * 256
        hist = np.bincount(
            cols.ravel(), minlength=256 * cols.shape[1]
        ).reshape(cols.shape[1], 256)
        totals[8 * lo : 8 * (lo + cols.shape[1])] = (hist @ _BYTE_BITS).ravel()
    return totals


class _PackedSweep:
    """Preallocated expansion engine for one packed multi-source BFS.

    An instance serves a fixed word width: :meth:`expand` advances all
    packed frontiers one synchronous level reusing the same gather and
    scratch storage every call — the per-level allocations of the
    original kernel (a fresh ``nnz × W`` gather plus reduceat output
    per level) dominated its runtime at n = 10^5.  On graphs with a
    near-uniform degree distribution the segmented
    ``bitwise_or.reduceat`` is replaced by Δ whole-array gathers
    through the degree-padded neighbor table
    (:meth:`CsrGraph._padded_adjacency`), which runs ~5x faster at
    small Δ because it skips reduceat's per-segment inner loop.
    """

    __slots__ = ("csr", "words", "pad", "_stage", "_gather", "_reach", "_scratch")

    def __init__(self, csr: "CsrGraph", words: int) -> None:
        self.csr = csr
        self.words = words
        n = csr.n
        self.pad = csr._padded_adjacency() if csr.nnz else None
        self._stage = None
        self._gather = None
        if self.pad is not None:
            # Row n is the phantom endpoint of padding slots; it stays
            # all-zero so padded gathers contribute nothing.
            self._stage = np.zeros((n + 1, words), dtype=np.uint64)
        elif csr.nnz:
            self._gather = np.empty((csr.nnz + 1, words), dtype=np.uint64)
        self._reach = np.empty((n, words), dtype=np.uint64)
        self._scratch = np.empty((n, words), dtype=np.uint64)

    def expand(
        self,
        frontier: np.ndarray,
        visited: np.ndarray,
        mask: Optional[np.ndarray],
    ) -> np.ndarray:
        """One synchronous level of the packed multi-source BFS.

        ORs every frontier bit into its row's neighbors, prunes
        already-visited bits, applies ``mask`` and updates ``visited``
        in place.  Returns the newly-visited bits in an internal buffer
        that stays valid until the next call — callers may hand it back
        as the next frontier (the staging copy happens before the
        buffer is overwritten).
        """
        csr = self.csr
        n = csr.n
        reach, scratch = self._reach, self._scratch
        if csr.nnz == 0:
            reach[:] = 0
            return reach
        if self.pad is not None:
            _obs.count("csr.sweep.padded_take_levels")
            stage = self._stage
            stage[:n] = frontier
            np.take(stage, self.pad[:, 0], axis=0, out=reach)
            for d in range(1, self.pad.shape[1]):
                np.take(stage, self.pad[:, d], axis=0, out=scratch)
                np.bitwise_or(reach, scratch, out=reach)
        else:
            _obs.count("csr.sweep.reduceat_levels")
            gathered = self._gather
            np.take(frontier, csr._gather_index, axis=0, out=gathered)
            gathered[-1] = 0  # padding row: keeps the last segment harmless
            np.bitwise_or.reduceat(gathered, csr._starts, axis=0, out=reach)
            if csr._zero_degree is not None:
                reach[csr._zero_degree] = 0
        np.invert(visited, out=scratch)
        np.bitwise_and(reach, scratch, out=reach)
        if mask is not None:
            reach[~mask] = 0
        np.bitwise_or(visited, reach, out=visited)
        return reach


def _merge_top2_candidate(state1, state2, cand):
    """Merge one candidate record per position into distinct-source top-2.

    ``state1``/``state2``/``cand`` are ``(value, source, dist)`` array
    triples; empty slots carry ``(-inf, -1, 0)``.  Records compare by
    ``(value, source)`` with larger source winning exact-value ties —
    the shifted-flood rule.  A candidate with the same source as a kept
    record is an estimate of the same token, so the larger value (the
    shorter path) wins; sources held by the state are always distinct.
    """
    sv, ss, sd = state1
    tv, ts, td = state2
    cv, cs, cd = cand
    same1 = cs == ss
    upg1 = same1 & (cv > sv)
    beat1 = ~same1 & ((cv > sv) | ((cv == sv) & (cs > ss)))
    take1 = upg1 | beat1
    n1v = np.where(take1, cv, sv)
    n1s = np.where(take1, cs, ss)
    n1d = np.where(take1, cd, sd)
    # When the candidate displaces slot 1, the old slot-1 record drops
    # to slot 2 (its source differs from the new leader; it dominates
    # the old slot 2).  Otherwise the candidate competes for slot 2
    # unless it shares the leader's source.
    quiet = ~take1 & ~same1
    same2 = cs == ts
    upg2 = quiet & same2 & (cv > tv)
    beat2 = quiet & ~same2 & ((cv > tv) | ((cv == tv) & (cs > ts)))
    take2 = upg2 | beat2
    n2v = np.where(beat1, sv, np.where(take2, cv, tv))
    n2s = np.where(beat1, ss, np.where(take2, cs, ts))
    n2d = np.where(beat1, sd, np.where(take2, cd, td))
    return (n1v, n1s, n1d), (n2v, n2s, n2d)


class CsrGraph:
    """Compressed-sparse-row adjacency of a :class:`Graph` plus kernels.

    ``indices[indptr[v]:indptr[v+1]]`` lists the (sorted) neighbors of
    ``v``.  The arrays are immutable snapshots of the owning graph,
    which is itself immutable.
    """

    __slots__ = (
        "n",
        "nnz",
        "indptr",
        "indices",
        "degrees",
        "_gather_index",
        "_starts",
        "_zero_degree",
        "_padded",
        "_shared",
        "__weakref__",
    )

    def __init__(self, graph) -> None:
        n = graph.n
        self.n = n
        degrees = np.fromiter(
            (len(graph.neighbors(v)) for v in range(n)),
            dtype=np.int64,
            count=n,
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        nnz = int(indptr[-1])
        indices = np.fromiter(
            (u for v in range(n) for u in graph.neighbors(v)),
            dtype=np.int64,
            count=nnz,
        )
        self._init_from_arrays(n, nnz, indptr, indices, degrees)
        self._padded = False  # degree-padded table, built lazily

    def _init_from_arrays(self, n, nnz, indptr, indices, degrees) -> None:
        self.n = n
        self.nnz = nnz
        self.indptr = indptr
        self.indices = indices
        self.degrees = degrees
        # The packed expansion gathers one extra (zeroed) row so every
        # reduceat start index is in range even when trailing vertices
        # have degree 0 — clipping those starts instead would truncate
        # the preceding vertex's neighbor segment.  Degree-0 rows get
        # garbage from reduceat's empty-segment rule and are zeroed
        # after the reduction.
        self._gather_index = np.concatenate((indices, [0])) if n else indices
        self._starts = indptr[:-1]
        zero = degrees == 0
        self._zero_degree = np.nonzero(zero)[0] if zero.any() else None
        self._shared = None  # shared-memory export, built lazily

    @classmethod
    def _from_shared_arrays(
        cls,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        padded: Optional[np.ndarray],
    ) -> "CsrGraph":
        """Worker-side constructor over shared-memory CSR arrays.

        ``indptr``/``indices`` (and ``padded``, when the parent's
        skew check admitted the table) are zero-copy views of the
        parent's :mod:`multiprocessing.shared_memory` segments; the
        derived arrays are rebuilt locally in O(n + m).  ``padded=None``
        replays the parent's decision to keep the segmented-reduceat
        expansion, so every worker computes exactly what the serial
        loop would.
        """
        csr = object.__new__(cls)
        csr._init_from_arrays(
            n, int(indptr[-1]) if n else 0, indptr, indices, np.diff(indptr)
        )
        csr._padded = padded if padded is not None else None
        return csr

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def residual_mask(self, within: Optional[Iterable[int]]) -> Optional[np.ndarray]:
        """Boolean (n,) mask of a residual vertex set.

        The canonical set-to-mask conversion: carving drivers build it
        once per residual snapshot and pass it as ``within`` to every
        kernel call of that snapshot (masks pass through untouched).
        """
        return self._allowed_mask(within)

    def _allowed_mask(self, within: Optional[Iterable[int]]) -> Optional[np.ndarray]:
        """Boolean (n,) mask for a residual vertex set, or None.

        A boolean (n,) array passes through unchanged, so callers that
        run many kernels against the same residual snapshot (the carving
        drivers) can build the mask once.
        """
        if within is None:
            return None
        if isinstance(within, np.ndarray) and within.dtype == bool:
            require(len(within) == self.n, "mask must have one entry per vertex")
            return within
        mask = np.zeros(self.n, dtype=bool)
        idx = np.fromiter(within, dtype=np.int64)
        if idx.size:
            require(
                idx.min() >= 0 and idx.max() < self.n,
                "within contains out-of-range vertices",
            )
            mask[idx] = True
        return mask

    def _neighbors_of(self, frontier: np.ndarray) -> np.ndarray:
        """Concatenated neighbor lists of the frontier vertices."""
        counts = self.degrees[frontier]
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        starts = self.indptr[frontier]
        excl = np.cumsum(counts) - counts
        pos = np.arange(total, dtype=np.int64) + np.repeat(starts - excl, counts)
        return self.indices[pos]

    def _padded_adjacency(self) -> Optional[np.ndarray]:
        """(n, Δ) neighbor table padded with the phantom vertex ``n``.

        Row ``v`` lists ``neighbors(v)`` padded to the maximum degree
        with ``n`` — a phantom endpoint whose packed state the sweep
        keeps all-zero — so the packed expansion becomes Δ whole-array
        gathers instead of a segmented reduceat.  Returns ``None`` on
        skewed degree distributions where the padding would blow the
        table past ``_PAD_WASTE_FACTOR`` times the CSR size; cached
        after the first call.
        """
        if self._padded is False:
            dmax = int(self.degrees.max()) if self.n else 0
            if dmax == 0 or dmax * self.n > _PAD_WASTE_FACTOR * max(self.nnz, 1):
                self._padded = None
            else:
                pad = np.full((self.n, dmax), self.n, dtype=np.int64)
                slots = np.arange(dmax, dtype=np.int64)[None, :] < self.degrees[:, None]
                pad[slots] = self.indices
                self._padded = pad
        return self._padded

    def _seed_packed(
        self,
        sources: np.ndarray,
        count: int,
        mask: Optional[np.ndarray],
    ) -> np.ndarray:
        """(n, W) uint64 with bit j (byte-wise, MSB first) set at vertex
        ``sources[j]``; ``W = ceil(count / 64)``.

        The byte layout matches ``np.unpackbits`` on a uint8 view, so
        ``unpack`` round-trips regardless of endianness (the bitwise
        kernels treat bytes independently).  Sources excluded by
        ``mask`` are left unseeded (empty balls), matching the
        reference gather on a residual set.
        """
        words = (count + 63) // 64
        visited = np.zeros((self.n, words), dtype=np.uint64)
        byte_view = visited.view(np.uint8)
        cols = np.arange(len(sources))
        if mask is not None:
            keep = mask[sources]
            sources, cols = sources[keep], cols[keep]
        bits = (1 << (7 - (cols & 7))).astype(np.uint8)
        np.bitwise_or.at(byte_view, (sources, cols >> 3), bits)
        return visited

    @staticmethod
    def _unpack(packed: np.ndarray, count: int) -> np.ndarray:
        """Boolean view of a packed (…, W) uint64 array, ``count`` columns."""
        return np.unpackbits(
            np.ascontiguousarray(packed).view(np.uint8), axis=-1, count=count
        ).astype(bool)

    def _chunk_width(self, requested: Optional[int]) -> int:
        """Sources per chunk, sized so the gather buffer stays bounded."""
        if requested is not None:
            require(requested >= 1, "chunk size must be >= 1")
            return requested
        budget_bytes = max(8, _GATHER_BUDGET_BYTES // max(1, self.nnz))
        return int(min(4096, budget_bytes * 8))

    # ------------------------------------------------------------------
    # Distances and balls
    # ------------------------------------------------------------------
    def bfs_distances(
        self,
        sources: Iterable[int],
        radius: Optional[int] = None,
        within: Optional[Iterable[int]] = None,
    ) -> np.ndarray:
        """Multi-source BFS distances as an (n,) int64 array (−1 unreached).

        Array-valued counterpart of :meth:`Graph.bfs_distances`; the
        sparse frontier keeps per-level work proportional to the edges
        incident to the frontier.
        """
        require(radius is None or radius >= 0, "radius must be >= 0")
        mask = self._allowed_mask(within)
        dist = np.full(self.n, -1, dtype=np.int64)
        src = np.fromiter(sources, dtype=np.int64)
        if src.size:
            require(
                src.min() >= 0 and src.max() < self.n,
                "sources contain out-of-range vertices",
            )
        src = np.unique(src)
        if mask is not None:
            src = src[mask[src]]
        if src.size == 0:
            return dist
        dist[src] = 0
        frontier = src
        d = 0
        while frontier.size and (radius is None or d < radius):
            neigh = self._neighbors_of(frontier)
            neigh = neigh[dist[neigh] < 0]
            if mask is not None:
                neigh = neigh[mask[neigh]]
            if neigh.size == 0:
                break
            frontier = np.unique(neigh)
            d += 1
            dist[frontier] = d
        return dist

    def all_ball_sizes(
        self,
        radius: Optional[int] = None,
        weights: Optional[Sequence[float]] = None,
        within: Optional[Iterable[int]] = None,
        sources: Optional[Iterable[int]] = None,
        chunk_size: Optional[int] = None,
        kernel_workers: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Ball sizes ``|N^radius(v)|`` for a whole batch of sources.

        Returns ``(sizes, depths)``: ``sizes[j]`` is the vertex count
        (or total ``weights``) of ``N^radius(sources[j])`` and
        ``depths[j]`` the largest BFS level that was non-empty — the
        per-source ``depth_reached`` of the equivalent gather.  This is
        the Algorithm 2 hot path: one packed frontier expansion per BFS
        level advances every source at once, and sources retire from
        the sweep as soon as they saturate (see :meth:`_ball_chunk`) —
        a whole-graph ``radius`` costs no more than the graph's
        diameter in levels.

        ``kernel_workers`` shards the (independent) source chunks over
        worker processes attached to the CSR arrays via shared memory;
        chunk boundaries and per-chunk computation are exactly the
        serial loop's, and results merge in chunk order, so sizes and
        depths are bit-identical at any worker count.  ``None`` resolves
        through :func:`repro.transport.resolve_kernel_workers`
        (``REPRO_KERNEL_WORKERS``, default serial).
        """
        require(radius is None or radius >= 0, "radius must be >= 0")
        mask = self._allowed_mask(within)
        if sources is None:
            src = np.arange(self.n, dtype=np.int64)
        else:
            src = np.fromiter(sources, dtype=np.int64)
            if src.size:
                require(
                    src.min() >= 0 and src.max() < self.n,
                    "sources contain out-of-range vertices",
                )
        w = None if weights is None else np.asarray(weights, dtype=np.float64)
        require(w is None or len(w) == self.n, "need one weight per vertex")
        sizes = np.zeros(len(src), dtype=np.float64)
        depths = np.zeros(len(src), dtype=np.int64)
        chunk = self._chunk_width(chunk_size)
        chunks = [src[lo : lo + chunk] for lo in range(0, len(src), chunk)]
        workers = resolve_kernel_workers(kernel_workers)
        with _obs.span("csr.all_ball_sizes"):
            if workers > 1 and len(chunks) > 1:
                results = _parallel.run_chunk_tasks(
                    self, "ball", chunks, (radius, w, mask), workers
                )
                lo = 0
                for s_chunk, (s_sizes, s_depths) in zip(chunks, results, strict=True):
                    hi = lo + len(s_chunk)
                    sizes[lo:hi] = s_sizes
                    depths[lo:hi] = s_depths
                    lo = hi
                return sizes, depths
            lo = 0
            for s_chunk in chunks:
                hi = lo + len(s_chunk)
                with _obs.span("csr.ball_chunk"):
                    self._ball_chunk(
                        s_chunk, radius, w, mask, sizes[lo:hi], depths[lo:hi]
                    )
                lo = hi
            return sizes, depths

    def _ball_chunk(
        self,
        s_chunk: np.ndarray,
        radius: Optional[int],
        w: Optional[np.ndarray],
        mask: Optional[np.ndarray],
        sizes_out: np.ndarray,
        depths_out: np.ndarray,
    ) -> None:
        """Saturation-aware packed sweep of one source chunk.

        A source whose frontier empties has saturated its (residual)
        component — every remaining radius step is a no-op for it and
        its ball size is final (``= |component|`` on an unrestricted
        sweep).  Sources are packed 64 per uint64 word; once every
        source of a word has saturated, the word's sizes are harvested
        and the word is dropped from the sweep, shrinking each later
        level's gather width.  The chunk exits when all words have
        retired, so a whole-graph ``radius`` never runs past the
        residual diameter (the old kernel's failure mode at n = 10^5,
        where ``radius ≈ 900`` met a diameter-20 graph).

        The first levels run on **sparse index frontiers** — arrays of
        ``(vertex, lane)`` pairs — because a fresh BFS touches only a
        handful of vertices per source while a packed pass always pays
        the full ``(W·64)``-lane width; once the frontiers densify past
        the :data:`_SPARSE_COST_FACTOR` break-even the chunk packs the
        current frontier and continues on the packed sweep.  Both
        phases update the same packed ``visited`` matrix, so sizes and
        depths are bit-identical wherever the switch happens.
        """
        count = len(s_chunk)
        if count == 0:
            return
        visited = self._seed_packed(s_chunk, count, mask)
        words = visited.shape[1]

        def harvest(packed: np.ndarray, word_ids: np.ndarray) -> None:
            totals = _column_weights(packed, w)
            for j, wid in enumerate(word_ids.tolist()):
                base = wid * 64
                top = min(count, base + 64)
                sizes_out[base:top] = totals[64 * j : 64 * j + (top - base)]

        # --- sparse early phase ------------------------------------------
        bytes_view = visited.view(np.uint8)  # (n, 8*words), MSB-first bytes
        nbytes = words * 8
        shift = (words * 64 - 1).bit_length()  # lane bits of the pair key
        fv = np.asarray(s_chunk, dtype=np.int64)
        fl = np.arange(count, dtype=np.int64)
        if mask is not None:
            seeded = mask[fv]
            fv, fl = fv[seeded], fl[seeded]
        r = 0
        packed_cost = max(self.nnz, 1) * words
        while fv.size and (radius is None or r < radius):
            edge_work = int(self.degrees[fv].sum())
            if not edge_work * _SPARSE_COST_FACTOR < packed_cost:
                _obs.gauge("csr.ball.handover_level", r)
                break  # densified: hand over to the packed sweep
            _obs.count("csr.ball.sparse_levels")
            _obs.count("csr.ball.sparse_frontier_edges", edge_work)
            _obs.gauge("csr.ball.peak_frontier_edges", edge_work)
            pair_lanes = np.repeat(fl, self.degrees[fv])
            keys = np.unique((self._neighbors_of(fv) << shift) | pair_lanes)
            nv, nl = keys >> shift, keys & ((1 << shift) - 1)
            if mask is not None:
                allowed = mask[nv]
                nv, nl = nv[allowed], nl[allowed]
            byte_idx = nl >> 3
            bits = (1 << (7 - (nl & 7))).astype(np.uint8)
            fresh = (bytes_view[nv, byte_idx] & bits) == 0
            nv, nl = nv[fresh], nl[fresh]
            if nv.size == 0:
                fv = nv
                break  # every source saturated during the sparse phase
            r += 1
            # Scatter the fresh bits byte-wise.  The key sort left equal
            # (vertex, byte) runs adjacent, so reduceat-summing the (per
            # pair unique) bits combines each byte's update in one pass
            # and the final fancy OR touches every byte position once —
            # the element-wise ``bitwise_or.at`` ufunc loop costs ~10x.
            byte_idx, bits = byte_idx[fresh], bits[fresh]
            flat = nv * nbytes + byte_idx
            run_starts = np.concatenate(
                ([0], np.nonzero(np.diff(flat))[0] + 1)
            )
            combined = np.add.reduceat(bits.astype(np.uint8), run_starts)
            bytes_view[nv[run_starts], byte_idx[run_starts]] |= combined
            depths_out[nl] = r
            fv, fl = nv, nl
        if not fv.size or (radius is not None and r >= radius):
            harvest(visited, np.arange(words, dtype=np.int64))
            return

        # --- packed phase ------------------------------------------------
        active = np.arange(words, dtype=np.int64)  # original word ids
        sweep = _PackedSweep(self, words)
        frontier = np.zeros_like(visited)
        fb = frontier.view(np.uint8)
        np.bitwise_or.at(
            fb, (fv, fl >> 3), (1 << (7 - (fl & 7))).astype(np.uint8)
        )
        lanes = np.arange(64, dtype=np.int64)
        while active.size and (radius is None or r < radius):
            new = sweep.expand(frontier, visited, mask)
            _obs.count("csr.ball.packed_levels")
            live_words = np.bitwise_or.reduce(new, axis=0)
            live = live_words != 0
            if not live.any():
                break
            r += 1
            grew = np.unpackbits(
                np.ascontiguousarray(live_words).view(np.uint8)
            ).astype(bool)
            cols = (active[:, None] * 64 + lanes[None, :]).ravel()[grew]
            depths_out[cols[cols < count]] = r
            if live.all():
                frontier = new
                continue
            retired = np.nonzero(~live)[0]
            _obs.count("csr.ball.words_retired", int(retired.size))
            harvest(visited[:, retired], active[retired])
            keep = np.nonzero(live)[0]
            active = active[keep]
            visited = np.ascontiguousarray(visited[:, keep])
            frontier = np.ascontiguousarray(new[:, keep])
            sweep = _PackedSweep(self, len(keep))
        if active.size:
            _obs.count("csr.ball.words_retired", int(active.size))
            harvest(visited, active)

    def distances_from(
        self,
        sources: Iterable[int],
        radius: Optional[int] = None,
        within: Optional[Iterable[int]] = None,
        chunk_size: Optional[int] = None,
        kernel_workers: Optional[int] = None,
    ) -> np.ndarray:
        """Batched per-source distances: (S, n) int64, −1 unreached.

        Row ``j`` is the single-source BFS distance vector of
        ``sources[j]`` (restricted to ``within`` when given).
        ``kernel_workers`` shards source chunks over worker processes;
        distances are exact integers independent of chunk boundaries,
        so the matrix is bit-identical at any worker count (a default
        chunk too wide to fill the workers is narrowed to spread the
        sources — pass ``chunk_size`` to pin the serial chunking).
        """
        require(radius is None or radius >= 0, "radius must be >= 0")
        mask = self._allowed_mask(within)
        src = np.fromiter(sources, dtype=np.int64)
        if src.size:
            require(
                src.min() >= 0 and src.max() < self.n,
                "sources contain out-of-range vertices",
            )
        dist = np.full((len(src), self.n), -1, dtype=np.int64)
        chunk = self._chunk_width(chunk_size)
        workers = resolve_kernel_workers(kernel_workers)
        if workers > 1 and chunk_size is None and src.size:
            chunk = max(1, min(chunk, -(-len(src) // workers)))
        chunks = [
            (lo, src[lo : lo + chunk]) for lo in range(0, len(src), chunk)
        ]
        with _obs.span("csr.distances_from"):
            if workers > 1 and len(chunks) > 1:
                results = _parallel.run_chunk_tasks(
                    self,
                    "dist",
                    [s_chunk for _, s_chunk in chunks],
                    (radius, mask),
                    workers,
                )
                for (lo, s_chunk), block in zip(chunks, results, strict=True):
                    dist[lo : lo + len(s_chunk)] = block
                return dist
            for lo, s_chunk in chunks:
                if len(s_chunk):
                    with _obs.span("csr.distances_chunk"):
                        dist[lo : lo + len(s_chunk)] = self._distances_chunk(
                            s_chunk, radius, mask
                        )
            return dist

    def _distances_chunk(
        self,
        s_chunk: np.ndarray,
        radius: Optional[int],
        mask: Optional[np.ndarray],
    ) -> np.ndarray:
        """Distance rows of one source chunk: (len(s_chunk), n) int64."""
        count = len(s_chunk)
        block = np.full((count, self.n), -1, dtype=np.int64)
        visited = self._seed_packed(s_chunk, count, mask)
        sweep = _PackedSweep(self, visited.shape[1])
        block[self._unpack(visited, count).T] = 0
        frontier = visited.copy()
        r = 0
        while radius is None or r < radius:
            new = sweep.expand(frontier, visited, mask)
            if not new.any():
                break
            r += 1
            block[self._unpack(new, count).T] = r
            frontier = new
        return block

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def power(
        self,
        k: int,
        chunk_size: Optional[int] = None,
        kernel_workers: Optional[int] = None,
    ):
        """The k-th power graph ``G^k`` (edge when ``1 <= dist <= k``).

        Batched reachability from every vertex followed by a trusted
        bulk :class:`Graph` construction — no per-edge Python loop.
        ``kernel_workers`` shards the source chunks over worker
        processes; the final lexsort orders the merged edge arrays
        globally, so the produced graph is identical at any worker
        count (and any chunking).
        """
        from repro.graphs.graph import Graph

        require(k >= 1, f"power k must be >= 1, got {k}")
        us: List[np.ndarray] = []
        vs: List[np.ndarray] = []
        chunk = self._chunk_width(chunk_size)
        workers = resolve_kernel_workers(kernel_workers)
        if workers > 1 and chunk_size is None and self.n:
            chunk = max(1, min(chunk, -(-self.n // workers)))
        src = np.arange(self.n, dtype=np.int64)
        chunks = [src[lo : lo + chunk] for lo in range(0, self.n, chunk)]
        with _obs.span("csr.power"):
            if workers > 1 and len(chunks) > 1:
                results = _parallel.run_chunk_tasks(
                    self, "power", chunks, (k,), workers
                )
                for chunk_us, chunk_vs in results:
                    us.append(chunk_us)
                    vs.append(chunk_vs)
            else:
                for s_chunk in chunks:
                    with _obs.span("csr.power_chunk"):
                        chunk_us, chunk_vs = self._power_chunk(s_chunk, k)
                    us.append(chunk_us)
                    vs.append(chunk_vs)
        u_all = np.concatenate(us) if us else np.empty(0, dtype=np.int64)
        v_all = np.concatenate(vs) if vs else np.empty(0, dtype=np.int64)
        order = np.lexsort((v_all, u_all))
        return Graph._from_sorted_edge_arrays(self.n, u_all[order], v_all[order])

    def _power_chunk(
        self, s_chunk: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``G^k`` edges incident to one source chunk, as (u, v) u < v."""
        count = len(s_chunk)
        visited = self._seed_packed(s_chunk, count, None)
        sweep = _PackedSweep(self, visited.shape[1])
        frontier = visited.copy()
        for _ in range(k):
            new = sweep.expand(frontier, visited, None)
            if not new.any():
                break
            frontier = new
        unpacked = self._unpack(visited, count)
        reached, col = np.nonzero(unpacked)
        source = s_chunk[col]
        keep = reached < source  # each unordered pair once, as (u, v) u < v
        return reached[keep], source[keep]

    def connected_components(
        self, within: Optional[Iterable[int]] = None
    ) -> List[Set[int]]:
        """Connected components (of the ``within``-induced subgraph).

        Discovery order matches the pure-Python oracle
        (:func:`repro.graphs.reference.connected_components`): each
        component is found from its smallest not-yet-seen vertex.  The
        per-component BFS marks ``seen`` directly and allocates only
        frontier-sized arrays, so total work is ``O(n + m)`` even when
        the graph shatters into many small components (the typical
        residual shape after LDD carving).
        """
        mask = self._allowed_mask(within)
        seen = np.zeros(self.n, dtype=bool)
        if mask is not None:
            seen[~mask] = True
        components: List[Set[int]] = []
        cursor = 0
        while True:
            while cursor < self.n and seen[cursor]:
                cursor += 1
            if cursor >= self.n:
                break
            seed = cursor
            seen[seed] = True
            comp = [seed]
            # Tiny frontiers (the common case when carving shatters the
            # graph into many small components) stay in Python — a
            # handful of scalar reads beats six array ops; a frontier
            # that grows past the threshold switches to vectorized
            # expansion for the rest of its component.
            frontier_list = [seed]
            while frontier_list:
                if len(frontier_list) > 32:
                    frontier = np.asarray(frontier_list, dtype=np.int64)
                    while frontier.size:
                        neigh = self._neighbors_of(frontier)
                        neigh = neigh[~seen[neigh]]
                        if neigh.size == 0:
                            break
                        frontier = np.unique(neigh)
                        seen[frontier] = True
                        comp.extend(frontier.tolist())
                    break
                nxt: List[int] = []
                for v in frontier_list:
                    for u in self.indices[
                        self.indptr[v] : self.indptr[v + 1]
                    ].tolist():
                        if not seen[u]:
                            seen[u] = True
                            nxt.append(u)
                            comp.append(u)
                frontier_list = nxt
            components.append(set(comp))
        return components

    def weak_diameter(
        self, subset: Iterable[int], kernel_workers: Optional[int] = None
    ) -> float:
        """``max_{u,v in subset} dist_G(u, v)`` in the full graph."""
        vs = sorted(set(subset))
        if len(vs) <= 1:
            return 0.0
        dist = self.distances_from(vs, kernel_workers=kernel_workers)[:, vs]
        if (dist < 0).any():
            return float("inf")
        return float(dist.max())

    def eccentricities(
        self,
        chunk_size: Optional[int] = None,
        kernel_workers: Optional[int] = None,
    ) -> np.ndarray:
        """Per-vertex eccentricities as a float64 array (``inf`` when the
        vertex cannot reach every other vertex).

        Batched counterpart of looping
        :func:`repro.graphs.reference.eccentricity` over all vertices;
        sources are processed in packed chunks so the distance matrix
        never materializes beyond one chunk.
        ``kernel_workers`` shards the chunks over worker processes; the
        per-chunk reduction (exact integer maxima) happens worker-side,
        so only (chunk,)-sized results travel back and the array is
        bit-identical at any worker count.
        """
        ecc = np.zeros(self.n, dtype=np.float64)
        chunk = self._chunk_width(chunk_size)
        workers = resolve_kernel_workers(kernel_workers)
        if workers > 1 and chunk_size is None and self.n:
            chunk = max(1, min(chunk, -(-self.n // workers)))
        ranges = [
            (lo, min(self.n, lo + chunk)) for lo in range(0, self.n, chunk)
        ]
        with _obs.span("csr.eccentricities"):
            if workers > 1 and len(ranges) > 1:
                results = _parallel.run_chunk_tasks(
                    self, "ecc", ranges, (), workers
                )
                for (lo, hi), block in zip(ranges, results, strict=True):
                    ecc[lo:hi] = block
                return ecc
            for lo, hi in ranges:
                ecc[lo:hi] = self._ecc_chunk(lo, hi)
            return ecc

    def _ecc_chunk(self, lo: int, hi: int) -> np.ndarray:
        """Eccentricities of vertices ``lo..hi-1`` as (hi-lo,) float64."""
        dist = self.distances_from(range(lo, hi), chunk_size=max(1, hi - lo))
        block = dist.max(axis=1).astype(np.float64)
        block[(dist < 0).any(axis=1)] = np.inf
        return block

    def girth(
        self,
        upper_bound: Optional[int] = None,
        chunk_size: Optional[int] = None,
        kernel_workers: Optional[int] = None,
    ) -> float:
        """Shortest cycle length (``inf`` for forests).

        Batched counterpart of :func:`repro.graphs.reference.girth` with
        the same return value for every input, ``upper_bound`` included.
        Per root (in ascending order, distance vectors computed in
        packed chunks) a
        shortest cycle through the root is witnessed either by an edge
        inside one BFS level (odd, ``2d + 1``) or by a vertex with two
        or more neighbors in the previous level (even, ``2d``) — the
        exact candidate set of the reference's non-tree-edge scan, so
        the minimum over roots agrees.  After each root, a running best
        at or below ``upper_bound`` returns immediately, mirroring the
        reference's per-root early exit.
        """
        best = float("inf")
        if self.nnz == 0:
            return best
        heads = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        once = heads < self.indices  # each undirected edge once
        us, vs = heads[once], self.indices[once]
        chunk = self._chunk_width(chunk_size)
        if upper_bound is not None and chunk_size is None:
            # The per-root early exit usually fires within the first few
            # roots; don't pre-pay a whole chunk of BFS distance rows.
            chunk = min(chunk, 32)
        for lo in range(0, self.n, chunk):
            hi = min(self.n, lo + chunk)
            dist = self.distances_from(
                range(lo, hi), kernel_workers=kernel_workers
            )
            for row in range(hi - lo):
                d = dist[row]
                du, dv = d[us], d[vs]
                reached = (du >= 0) & (dv >= 0)
                same = reached & (du == dv)
                if same.any():
                    best = min(best, 2 * int(du[same].min()) + 1)
                cross = reached & (du != dv)
                upper = np.where(du > dv, us, vs)[cross]
                if upper.size:
                    # >= 2 neighbors one level down => even cycle 2d.
                    repeated = np.bincount(upper, minlength=self.n)[upper] >= 2
                    if repeated.any():
                        d_upper = np.maximum(du, dv)[cross]
                        best = min(best, 2 * int(d_upper[repeated].min()))
                if upper_bound is not None and best <= upper_bound:
                    return best
        return best

    # ------------------------------------------------------------------
    # Elkin–Neiman communication core
    # ------------------------------------------------------------------
    def top2_shifted_flood(
        self,
        shifts: Sequence[float],
        within: Optional[Iterable[int]] = None,
    ) -> Tuple[np.ndarray, ...]:
        """Top-2 shifted-flood records per vertex, as six arrays.

        For every vertex ``v`` computes the two best ``(value, source)``
        pairs of ``m_u(v) = T_u − dist(u, v)`` over sources ``u`` whose
        token survives the −1 propagation cutoff, with ties broken
        toward the larger source id — exactly the ``keep=2`` result of
        :func:`repro.decomp.shifts.shifted_flood`.  Returns
        ``(val1, src1, dist1, val2, src2, dist2)``; missing records are
        marked by source −1.

        Implementation: synchronous *delta* propagation.  Only vertices
        whose top-2 changed in the previous round emit their records
        (decremented by one hop) to their neighbors; candidates are
        reduced per destination to their best two distinct sources with
        one lexsort and merged into the running state with elementwise
        comparisons.  Per-round work is proportional to the edges
        incident to the active wavefront — the vectorized analogue of
        the heap flood's pruning — and the state is monotone, so the
        iteration stabilizes within ``⌊max T⌋ + 2`` rounds (the maximum
        token range).
        """
        shifts_arr = np.asarray(shifts, dtype=np.float64)
        require(len(shifts_arr) == self.n, "need one shift per vertex")
        mask = self._allowed_mask(within)
        neg = -np.inf
        b1v = np.full(self.n, neg)
        b1s = np.full(self.n, -1, dtype=np.int64)
        b1d = np.zeros(self.n, dtype=np.int64)
        b2v = np.full(self.n, neg)
        b2s = np.full(self.n, -1, dtype=np.int64)
        b2d = np.zeros(self.n, dtype=np.int64)
        if mask is None:
            alive = np.arange(self.n, dtype=np.int64)
        else:
            alive = np.nonzero(mask)[0]
        b1v[alive] = shifts_arr[alive]
        b1s[alive] = alive
        if alive.size == 0:
            return b1v, b1s, b1d, b2v, b2s, b2d
        max_rounds = int(math.floor(float(shifts_arr[alive].max()))) + 3
        changed = alive
        for _ in range(max_rounds):
            if changed.size == 0:
                break
            dst = self._neighbors_of(changed)
            emit = np.repeat(changed, self.degrees[changed])
            if mask is not None:
                keep = mask[dst]
                dst, emit = dst[keep], emit[keep]
            cand_v = np.concatenate((b1v[emit] - 1.0, b2v[emit] - 1.0))
            cand_s = np.concatenate((b1s[emit], b2s[emit]))
            cand_d = np.concatenate((b1d[emit] + 1, b2d[emit] + 1))
            seg = np.concatenate((dst, dst))
            ok = (cand_v >= _CUTOFF) & (cand_s >= 0)
            cand_v, cand_s, cand_d, seg = cand_v[ok], cand_s[ok], cand_d[ok], seg[ok]
            if seg.size == 0:
                break
            order = np.lexsort((-cand_s, -cand_v, seg))
            cand_v, cand_s, cand_d, seg = (
                cand_v[order],
                cand_s[order],
                cand_d[order],
                seg[order],
            )
            # Reduce to each destination's best and best-distinct-source
            # candidate (sound: anything below those two can never enter
            # a distinct-source top-2, see the shifts-module argument).
            first = np.ones(len(seg), dtype=bool)
            first[1:] = seg[1:] != seg[:-1]
            dests = seg[first]
            c1 = (cand_v[first], cand_s[first], cand_d[first])
            seg_ids = np.cumsum(first) - 1
            distinct = cand_s != c1[1][seg_ids]
            seg2 = seg[distinct]
            second = np.ones(len(seg2), dtype=bool)
            second[1:] = seg2[1:] != seg2[:-1]
            c2v = np.full(len(dests), neg)
            c2s = np.full(len(dests), -1, dtype=np.int64)
            c2d = np.zeros(len(dests), dtype=np.int64)
            slot = np.searchsorted(dests, seg2[second])
            c2v[slot] = cand_v[distinct][second]
            c2s[slot] = cand_s[distinct][second]
            c2d[slot] = cand_d[distinct][second]
            old = (b1v[dests], b1s[dests], b2v[dests], b2s[dests])
            s1, s2 = _merge_top2_candidate(
                (b1v[dests], b1s[dests], b1d[dests]),
                (b2v[dests], b2s[dests], b2d[dests]),
                c1,
            )
            s1, s2 = _merge_top2_candidate(s1, s2, (c2v, c2s, c2d))
            delta = (
                (s1[1] != old[1])
                | (s1[0] != old[0])
                | (s2[1] != old[3])
                | (s2[0] != old[2])
            )
            b1v[dests], b1s[dests], b1d[dests] = s1
            b2v[dests], b2s[dests], b2d[dests] = s2
            changed = dests[delta]
        return b1v, b1s, b1d, b2v, b2s, b2d
