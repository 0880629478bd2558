"""Per-layer tracing from outside the program: wrap public entry points.

:class:`Tracer` replaces each entry point in :data:`ENTRY_POINTS` with a
wrapper that records a span (name, start, end, parent, op id) and the
span's *self* time — its duration minus the durations of wrapped calls
nested inside it.  Nothing under ``src/`` is edited.

Where a wrapper goes decides what it sees.  ``core/*`` binds names at
import time (``from repro.ilp.exact import solve_packing_exact``), so a
module-level function is replaced in every loaded ``repro`` module that
holds it, not only where it is defined.  Methods are replaced on their
class.  An entry point whose symbol no longer exists is recorded as
absent (with the missing symbol) instead of failing the run.

Spans stay in memory and are written out by :meth:`Tracer.dump` when
the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (layer, entry, "module:qualname").  Metric names are
#: ``<layer>.<entry>.calls`` and ``<layer>.<entry>.self_s``.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("graphs.csr", "all_ball_sizes", "repro.graphs.csr:CsrGraph.all_ball_sizes"),
    ("graphs.csr", "bfs_distances", "repro.graphs.csr:CsrGraph.bfs_distances"),
    ("graphs.csr", "distances_from", "repro.graphs.csr:CsrGraph.distances_from"),
    ("local.gather", "gather_ball", "repro.local.gather:gather_ball"),
    ("decomp", "elkin_neiman_ldd", "repro.decomp.elkin_neiman:elkin_neiman_ldd"),
    ("decomp", "sparse_cover", "repro.decomp.sparse_cover:sparse_cover"),
    ("core.carve", "grow_and_carve", "repro.core.carve:grow_and_carve"),
    ("core.carve", "grow_and_carve_packing", "repro.core.carve:grow_and_carve_packing"),
    ("core.carve", "grow_and_carve_covering", "repro.core.carve:grow_and_carve_covering"),
    ("ilp.instance", "packing_restrict", "repro.ilp.instance:PackingInstance.restrict"),
    ("ilp.instance", "covering_restrict", "repro.ilp.instance:CoveringInstance.restrict"),
    ("ilp.instance", "covering_restrict_to_edges",
     "repro.ilp.instance:CoveringInstance.restrict_to_edges"),
    ("ilp.exact", "solve_packing_exact", "repro.ilp.exact:solve_packing_exact"),
    ("ilp.exact", "solve_covering_exact", "repro.ilp.exact:solve_covering_exact"),
    ("ilp.exact", "max_weight_independent_set", "repro.ilp.exact:max_weight_independent_set"),
    ("ilp.exact", "milp_solve", "repro.ilp.lp:milp_solve"),
    ("ilp.mwu", "mwu_fractional", "repro.ilp.mwu:mwu_fractional"),
    ("ilp.mwu", "solve_packing_mwu", "repro.ilp.mwu:solve_packing_mwu"),
    ("ilp.mwu", "solve_covering_mwu", "repro.ilp.mwu:solve_covering_mwu"),
    ("ilp.certificates", "from_instance", "repro.ilp.certificates:MwuProblem.from_instance"),
    ("ilp.certificates", "verify_certificate", "repro.ilp.certificates:verify_certificate"),
)

#: Root spans the benchmark opens around each op and each check.
OP, CHECK = "bench.op", "bench.check"

#: Spans kept for the dump; aggregates are exact past this cap.
MAX_SPANS = 250_000


def per_pass(total: int, passes: int, name: str, uneven: List[str]) -> int:
    """``total`` over ``passes`` identical passes; notes ``name`` if uneven."""
    count, rem = divmod(int(total), passes)
    if rem:
        uneven.append(name)
    return count


def _local_n(args: tuple, kwargs: dict) -> int:
    instance = args[0]
    subset = kwargs.get("subset", args[1] if len(args) > 1 else None)
    return instance.n if subset is None else len(set(subset))


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = [OP, CHECK] + [f"{layer}.{entry}" for layer, entry, _ in ENTRY_POINTS]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = {"op": [0.0] * len(self.names), "check": [0.0] * len(self.names)}
        self.spans: List[Tuple[int, float, float, int, int]] = []
        self.dropped = 0
        # Extra work counts taken from arguments / return values.
        self.ball_vertices = 0
        self.rows_built = 0
        self.local_n: List[int] = []
        # Live frames: [name index, start, child time, span id].
        self._stack: List[list] = []
        self._op_id = -1
        self._phase = "op"
        self._origin = time.perf_counter()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.absent: Dict[str, str] = {}

    # -- spans ---------------------------------------------------------
    def _enter(self, idx: int) -> list:
        frame = [idx, time.perf_counter(), 0.0, len(self.spans) + self.dropped]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        t1 = time.perf_counter()
        stack = self._stack
        stack.pop()
        idx, t0, child, span_id = frame
        dur = t1 - t0
        self.calls[idx] += 1
        self.self_s[self._phase][idx] += dur - child
        parent = -1
        if stack:
            stack[-1][2] += dur
            parent = stack[-1][3]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((idx, t0 - self._origin, t1 - self._origin, parent, self._op_id))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def _root(self, name: str, phase: str, op_id: int) -> Iterator[None]:
        self._op_id, self._phase = op_id, phase
        frame = self._enter(self._index[name])
        try:
            yield
        finally:
            self._exit(frame)

    def op_span(self, op_id: int):
        """Root span around one op's timed call."""
        return self._root(OP, "op", op_id)

    def check_span(self, op_id: int):
        """Root span around one op's check (outside its timed region)."""
        return self._root(CHECK, "check", op_id)

    # -- wrapping ------------------------------------------------------
    def _wrap(self, fn: Callable, name: str) -> Callable:
        idx = self._index[name]
        extra = {
            "local.gather.gather_ball": self._count_ball,
            "ilp.instance.packing_restrict": self._count_rows,
            "ilp.instance.covering_restrict": self._count_rows,
            "ilp.instance.covering_restrict_to_edges": self._count_rows,
            "ilp.exact.solve_packing_exact": self._count_local_n,
            "ilp.exact.solve_covering_exact": self._count_local_n,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if extra is not None:
                extra(args, kwargs, out)
            return out

        return wrapper

    def _count_ball(self, args, kwargs, out) -> None:
        self.ball_vertices += sum(len(layer) for layer in out.layers)

    def _count_rows(self, args, kwargs, out) -> None:
        self.rows_built += out.m

    def _count_local_n(self, args, kwargs, out) -> None:
        self.local_n.append(_local_n(args, kwargs))

    def install(self) -> None:
        """Replace every entry point that exists; record the others."""
        for layer, entry, target in ENTRY_POINTS:
            name = f"{layer}.{entry}"
            module_name, qualname = target.split(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent[name] = target
                continue
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = None if owner is None else owner.__dict__.get(attr)
                if raw is None:
                    self.absent[name] = target
                    continue
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, name))
                elif isinstance(raw, staticmethod):
                    patched = staticmethod(self._wrap(raw.__func__, name))
                else:
                    patched = self._wrap(raw, name)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, patched)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent[name] = target
                continue
            wrapped = self._wrap(original, name)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        """Put every original back (reverse order)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------
    @property
    def unattributed_s(self) -> float:
        """Op time no wrapped call covers: the op root span's self time."""
        return self.self_s["op"][self._index[OP]]

    def layer_metrics(self, passes: int, uneven: List[str]) -> Dict[str, Tuple[Optional[float], str]]:
        """Per-pass ``.calls`` / ``.self_s`` for every entry point.

        Every pass runs the same ops, so each count must split evenly;
        the name of any that does not is appended to ``uneven``.
        """
        out: Dict[str, Tuple[Optional[float], str]] = {}
        for layer, entry, _ in ENTRY_POINTS:
            name = f"{layer}.{entry}"
            if name in self.absent:
                out[f"{name}.calls"] = (None, "count")
                out[f"{name}.self_s"] = (None, "s")
                continue
            idx = self._index[name]
            out[f"{name}.calls"] = (per_pass(self.calls[idx], passes, f"{name}.calls", uneven), "count")
            total = self.self_s["op"][idx] + self.self_s["check"][idx]
            out[f"{name}.self_s"] = (total / passes, "s")
        return out

    def table(self, passes: int, op_wall: float) -> List[str]:
        """Human-readable per-layer table: share of op wall per entry."""
        rows = [
            f"{'entry':48s} {'calls':>9s} {'self_s/pass':>12s} {'share':>7s} {'check_s':>9s}"
        ]
        for layer, entry, target in ENTRY_POINTS:
            name = f"{layer}.{entry}"
            if name in self.absent:
                rows.append(f"{name:48s} ABSENT (missing symbol {target})")
                continue
            idx = self._index[name]
            in_ops = self.self_s["op"][idx]
            rows.append(
                f"{name:48s} {self.calls[idx] // passes:9d} {in_ops / passes:12.4f} "
                f"{in_ops / op_wall:7.1%} {self.self_s['check'][idx] / passes:9.4f}"
            )
        residual = self.unattributed_s
        rows.append(f"{'core.unattributed_s (residual)':48s} {'':9s} {residual / passes:12.4f} "
                    f"{residual / op_wall:7.1%}")
        rows.append(f"{'op wall':48s} {'':9s} {op_wall / passes:12.4f} {1:7.1%}")
        return rows

    def dump(self, path: Path) -> None:
        """Write the recorded spans (one row per span) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start_s", "end_s", "parent", "op"],
                    "spans": self.spans,
                    "dropped": self.dropped,
                    "absent": self.absent,
                },
                fh,
            )
