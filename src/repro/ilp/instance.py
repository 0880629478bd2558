"""Packing and covering ILP instances (Definitions 1.1–1.3).

A packing problem is ``max w·x  s.t.  A x <= b,  x in {0,1}^n`` with
``A, b >= 0``; a covering problem is ``min w·x  s.t.  A x >= b``.  The
associated hypergraph (Definition 1.3) has one vertex per variable and
one hyperedge per constraint support.

An instance is one frozen array form: ``A`` in CSR (``indptr``,
``indices``, ``data``; rows in constructor order, the columns of a row
in the order the constructor received them), the bounds ``b`` and the
weights ``w``.  Restriction, feasibility, the hypergraph, the MWU view
and the LP/MILP matrix all read these arrays.

The *local restriction* semantics follow Section 2 exactly:

* Packing (Observation 2.1): restricting to ``S`` sets all variables
  outside ``S`` to zero and keeps **all** constraints — with ``A >= 0``
  this can never create infeasibility, and
  ``W(P*, S) <= W(P^local_S, S) <= W(P*, N¹(S))``.
* Covering (Observation 2.2): restricting to ``S`` keeps **only** the
  constraints whose support lies inside ``S`` — then
  ``W(Q^local_S, S) <= W(Q*, S)``.

Covering restrictions additionally support *completion* under a partial
assignment: variables already fixed to one reduce the right-hand sides
(used by Algorithm 7's "fix the assignment" step).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Set, Tuple, Type, TypeVar

import numpy as np
from scipy import sparse

from repro.graphs.hypergraph import Hypergraph
from repro.util.validation import require

#: Absolute tolerance for floating-point constraint checks.
FEASIBILITY_TOL = 1e-9

_I = TypeVar("_I", bound="_IlpBase")


@dataclass(frozen=True)
class Constraint:
    """One sparse row of ``A`` with its bound ``b`` (constructor input).

    ``coefficients`` maps variable index -> coefficient (all > 0; zero
    coefficients must be omitted so the hyperedge support is exact).
    The instance constructor validates and packs it into its arrays.
    """

    coefficients: Mapping[int, float]
    bound: float


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _indicator(n: int, members: Iterable[int]) -> np.ndarray:
    """Boolean mask of ``members`` over ``range(n)``; rejects any outside it."""
    index = np.fromiter(members, dtype=np.intp)
    require(
        not len(index) or (index.min() >= 0 and index.max() < n),
        f"index outside [0,{n})",
    )
    mask = np.zeros(n, dtype=bool)
    mask[index] = True
    return mask


class _IlpBase:
    """Shared array form of packing and covering instances."""

    sense: str

    def __init__(
        self,
        weights: Sequence[float],
        constraints: Sequence[Constraint],
        name: str = "",
    ) -> None:
        rows = [con.coefficients for con in constraints]
        indptr = np.cumsum([0] + [len(row) for row in rows])
        entries = itertools.chain.from_iterable
        self._adopt(
            weights,
            indptr,
            np.fromiter(entries(rows), dtype=np.intp, count=indptr[-1]),
            np.fromiter(entries(r.values() for r in rows), np.float64, indptr[-1]),
            [con.bound for con in constraints],
            name,
        )
        self._validate()

    @classmethod
    def from_csr(
        cls: Type[_I],
        weights: Sequence[float],
        indptr: Sequence[int],
        indices: Sequence[int],
        data: Sequence[float],
        bounds: Sequence[float],
        name: str = "",
    ) -> _I:
        """Build from CSR arrays, validated like the ``Constraint`` form."""
        inst = cls.__new__(cls)
        inst._adopt(weights, indptr, indices, data, bounds, name)
        inst._validate()
        return inst

    def _adopt(self, weights, indptr, indices, data, bounds, name: str) -> None:
        """Take frozen copies of the arrays; drop every derived memo."""
        self.weights = _frozen(np.array(weights, dtype=np.float64))
        self.indptr = _frozen(np.array(indptr, dtype=np.intp))
        self.indices = _frozen(np.array(indices, dtype=np.intp))
        self.data = _frozen(np.array(data, dtype=np.float64))
        self.bounds = _frozen(np.array(bounds, dtype=np.float64))
        self.name = name
        self._entry_rows: Optional[np.ndarray] = None
        self._csr: Optional[sparse.csr_matrix] = None
        self._hypergraph: Optional[Hypergraph] = None
        self._fingerprint: Optional[int] = None

    def _validate(self) -> None:
        """The construction checks, once per built instance."""
        indptr, indices, data = self.indptr, self.indices, self.data
        require(
            self.weights.ndim == 1
            and len(indptr) == self.m + 1
            and indptr[0] == 0
            and bool(np.all(np.diff(indptr) >= 0))
            and indptr[-1] == len(indices) == len(data),
            "CSR arrays are inconsistent: need 1-d weights, indptr[0] == 0, "
            "non-decreasing indptr, one bound per row, one coefficient per index",
        )
        for i in np.flatnonzero(~(self.weights >= 0))[:1]:
            raise ValueError(f"weight of variable {i} is {self.weights[i]}, not >= 0")
        for j in np.flatnonzero(~(self.bounds >= 0))[:1]:
            raise ValueError(f"bound of constraint {j} is {self.bounds[j]}, not >= 0")
        rows = self.entry_rows()
        order = np.lexsort((indices, rows))
        repeats = np.zeros(len(indices), dtype=bool)
        same_row = np.diff(rows[order]) == 0
        repeats[order[1:]] = same_row & (np.diff(indices[order]) == 0)
        for problem, bad in (
            ("coefficient must be > 0 (omit zeros)", ~(data > 0)),
            (f"variable outside [0,{self.n})", (indices < 0) | (indices >= self.n)),
            ("variable repeated", repeats),
        ):
            for e in np.flatnonzero(bad)[:1]:
                raise ValueError(
                    f"constraint {rows[e]}, variable {indices[e]} "
                    f"(coefficient {data[e]}): {problem}"
                )

    @property
    def n(self) -> int:
        """Number of variables."""
        return len(self.weights)

    @property
    def m(self) -> int:
        """Number of constraints."""
        return len(self.bounds)

    def entry_rows(self) -> np.ndarray:
        """Row index of every stored entry (cached)."""
        if self._entry_rows is None:
            counts = np.diff(self.indptr)
            self._entry_rows = _frozen(np.repeat(np.arange(self.m), counts))
        return self._entry_rows

    def row_sums(
        self, entries: np.ndarray, values: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-row sums of ``values`` (default: counts) over ``entries``.

        ``entries`` is a mask over the stored entries; each row is summed
        in stored order, one entry after the other.
        """
        picked = None if values is None else values[entries]
        return np.bincount(self.entry_rows()[entries], weights=picked, minlength=self.m)

    def select(
        self: _I,
        rows: np.ndarray,
        entries: np.ndarray,
        bounds: np.ndarray,
        weights: np.ndarray,
        name: str,
    ) -> _I:
        """Instance of the masked ``rows``, keeping their masked ``entries``.

        Rows and entries keep their stored order; ``bounds`` is indexed
        like the full row set.  No validation: the arrays come from
        ``self``.
        """
        entries = entries & rows[self.entry_rows()]
        indptr = np.zeros(int(rows.sum()) + 1, dtype=np.intp)
        np.cumsum(self.row_sums(entries)[rows], out=indptr[1:])
        inst = type(self).__new__(type(self))
        indices, data = self.indices[entries], self.data[entries]
        inst._adopt(weights, indptr, indices, data, bounds[rows], name)
        return inst

    def csr(self) -> sparse.csr_matrix:
        """``A`` as a canonical scipy CSR matrix (sorted columns; cached)."""
        if self._csr is None:
            self._csr = sparse.csr_matrix(
                (self.data, self.indices, self.indptr), shape=(self.m, self.n)
            ).sorted_indices()
        return self._csr

    def row_loads(self, chosen: Iterable[int]) -> np.ndarray:
        """``A x`` for the 0/1 assignment ``chosen`` (one value per row)."""
        return self.row_sums(_indicator(self.n, chosen)[self.indices], self.data)

    def weight(self, chosen: Iterable[int]) -> float:
        """Objective value ``w·x`` of the 0/1 assignment ``chosen``."""
        return sum(self.weights[np.fromiter(chosen, dtype=np.intp)].tolist())

    def weight_on(self, chosen: Iterable[int], subset: Set[int]) -> float:
        """``W(P, S)`` — objective restricted to variables in ``subset``."""
        return self.weight(v for v in chosen if v in subset)

    def hypergraph(self) -> Hypergraph:
        """The Definition 1.3 hypergraph (cached).

        Hyperedges are the non-empty constraint supports.  Variables in
        no constraint become isolated vertices of the hypergraph.
        """
        if self._hypergraph is None:
            cols, ptr = self.indices.tolist(), self.indptr.tolist()
            spans = zip(ptr[:-1], ptr[1:], strict=True)
            edges = [cols[a:b] for a, b in spans if b > a]
            self._hypergraph = Hypergraph(self.n, edges)
        return self._hypergraph

    def fingerprint(self) -> int:
        """Stable content hash for solver caching (memoized on self).

        Keyed by full content, never by object identity — ``id()`` can
        be reused after garbage collection, which would poison caches.
        """
        if self._fingerprint is None:
            arrays = (self.weights, self.indptr, self.indices, self.data, self.bounds)
            self._fingerprint = hash(
                (self.__class__.__name__, *(a.tobytes() for a in arrays))
            )
        return self._fingerprint


class PackingInstance(_IlpBase):
    """``max w·x  s.t.  A x <= b,  x in {0,1}^n`` (Definition 1.1)."""

    sense = "max"

    def is_feasible(self, chosen: Iterable[int]) -> bool:
        return bool(np.all(self.row_loads(chosen) <= self.bounds + FEASIBILITY_TOL))

    def restrict(self, subset: Iterable[int]) -> "PackingInstance":
        """Local packing instance on ``subset`` (Observation 2.1).

        All constraints are kept with outside variables clipped away
        (equivalently: forced to zero); rows left empty are dropped.
        Weights outside ``subset`` are zeroed so objective bookkeeping
        stays index-compatible with the parent instance.
        """
        keep = _indicator(self.n, subset)
        entries = keep[self.indices]
        rows = self.row_sums(entries) > 0
        weights = np.where(keep, self.weights, 0.0)
        return self.select(rows, entries, self.bounds, weights, f"{self.name}|S")


class CoveringInstance(_IlpBase):
    """``min w·x  s.t.  A x >= b,  x in {0,1}^n`` (Definition 1.2)."""

    sense = "min"

    def is_feasible(self, chosen: Iterable[int]) -> bool:
        return bool(np.all(self.row_loads(chosen) >= self.bounds - FEASIBILITY_TOL))

    def is_satisfiable(self) -> bool:
        """Whether selecting every variable satisfies all constraints."""
        return self.is_feasible(range(self.n))

    def _completion(
        self, fixed_ones: Iterable[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, entries, bounds)`` once ``fixed_ones`` are set to one.

        Fixed variables leave their rows and their coefficients are
        subtracted from the bounds (clamped at zero); ``rows`` marks the
        rows still unsatisfied, ``entries`` the entries of free variables.
        """
        fixed = _indicator(self.n, fixed_ones)[self.indices]
        bounds = self.bounds
        if fixed.any():
            bounds = np.maximum(0.0, bounds - self.row_sums(fixed, self.data))
        return bounds > FEASIBILITY_TOL, ~fixed, bounds

    def complete(self, fixed_ones: Iterable[int]) -> "CoveringInstance":
        """The instance left once ``fixed_ones`` are set to one.

        Their coefficients are subtracted from the bounds and the rows
        they satisfy are dropped; weights are unchanged.
        """
        return self.select(*self._completion(fixed_ones), self.weights, self.name)

    def restrict(
        self, subset: Iterable[int], fixed_ones: Iterable[int] = ()
    ) -> "CoveringInstance":
        """Local covering instance on ``subset`` (Observation 2.2).

        Keeps only constraints with support inside ``subset`` (after
        removing variables in ``fixed_ones``, whose contribution is
        subtracted from the bounds — the completion semantics used when
        Algorithm 7 has already fixed some variables to one).
        Constraints that become trivially satisfied are dropped.
        """
        keep = _indicator(self.n, subset)
        rows, entries, bounds = self._completion(fixed_ones)
        rows &= self.row_sums(entries & ~keep[self.indices]) == 0
        weights = np.where(keep, self.weights, 0.0)
        return self.select(rows, entries, bounds, weights, f"{self.name}|S")

    def restrict_to_edges(
        self, edge_indices: Iterable[int], fixed_ones: Iterable[int] = ()
    ) -> "CoveringInstance":
        """Sub-instance containing exactly the given constraints.

        Used by the covering algorithm when hyperedges (constraints),
        not variables, are partitioned across clusters.  Constraints
        that ``fixed_ones`` satisfy are dropped.
        """
        rows, entries, bounds = self._completion(fixed_ones)
        rows &= _indicator(self.m, edge_indices)
        return self.select(rows, entries, bounds, self.weights, f"{self.name}|E")
