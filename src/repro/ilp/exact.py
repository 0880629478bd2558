"""Exact 0/1 solvers for packing and covering instances.

These implement the "arbitrary local computation" of LOCAL clusters:
every cluster in the paper's algorithms solves its local sub-ILP
optimally.  The dispatcher recognizes structure and routes to the
fastest applicable solver:

* **conflict form** (all coefficients 1, bounds 1): packing becomes
  maximum-weight independent set on the conflict graph — solved by a
  bitset branch-and-reduce with component splitting and memoization;
* **matching form** (conflict form where every variable appears in at
  most two constraints): solved exactly by the blossom algorithm
  (networkx) on the constraint multigraph;
* **vertex-cover form** for covering (supports of size <= 2): solved as
  the complement of a maximum-weight independent set;
* **set-cover form** (all coefficients 1, bounds 1): branch-and-bound
  on the element with fewest candidates, greedy disjoint lower bound;
* anything else: generic branch-and-bound.

All solvers are exact; tests cross-validate them against brute force
and against ``scipy.optimize.milp``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from repro.ilp.instance import (
    FEASIBILITY_TOL,
    Constraint,
    CoveringInstance,
    PackingInstance,
)
from repro.util.validation import require

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.artifacts.cache import SolveCache


@dataclass(frozen=True)
class ExactSolution:
    """An optimal 0/1 solution: objective value and chosen variables."""

    weight: float
    chosen: FrozenSet[int]


#: Subproblems with more active variables than this are routed to the
#: HiGHS MILP backend (scipy) — still exact, with LP-bound pruning our
#: pure-Python branch-and-bound lacks.  Set to ``None`` to force the
#: built-in solvers everywhere (used by solver-equivalence tests).
#: Conflict-form instances tolerate a higher threshold (the bitset MWIS
#: solver is strong); general-form instances cut over much earlier.
MILP_CUTOVER_PACKING: Optional[int] = 72
MILP_CUTOVER_PACKING_GENERAL: Optional[int] = 26
MILP_CUTOVER_COVERING: Optional[int] = 48
MILP_CUTOVER_COVERING_GENERAL: Optional[int] = 22


def _solve_via_milp(sub, kind: str) -> ExactSolution:
    """Exact solve of an already-restricted instance via scipy HiGHS."""
    from repro.ilp.lp import milp_solve

    weight, chosen = milp_solve(sub)
    # Canonicalize: drop variables the MILP set arbitrarily (zero weight
    # and not needed) — packing stays feasible when variables are
    # dropped; for covering keep anything touching a constraint.
    if kind == "pack":
        chosen = {v for v in chosen if sub.weights[v] > 0}
    else:
        relevant = {v for con in sub.constraints for v in con.coefficients}
        chosen = {v for v in chosen if sub.weights[v] > 0 or v in relevant}
    weight = sub.weight(chosen)
    return ExactSolution(weight=weight, chosen=frozenset(chosen))




# ----------------------------------------------------------------------
# Maximum-weight independent set on a conflict graph (bitset B&B)
# ----------------------------------------------------------------------
def max_weight_independent_set(
    adjacency: Sequence[int], weights: Sequence[float]
) -> Tuple[float, int]:
    """MWIS on a graph given as bitmask adjacency rows.

    Returns ``(weight, chosen_mask)``.  Branch-and-reduce: isolated and
    weight-dominant vertices are taken greedily (safe reductions),
    connected components are solved independently, and subproblems are
    memoized by vertex mask.  Exact for all inputs; efficient on the
    sparse graphs the experiments use.
    """
    k = len(adjacency)
    require(len(weights) == k, "one weight per vertex")
    full_mask = (1 << k) - 1
    memo: Dict[int, Tuple[float, int]] = {}
    bit_index = {1 << i: i for i in range(k)}

    def lowest_vertex(mask: int) -> int:
        return bit_index[mask & -mask]

    def component_of(start_bit: int, mask: int) -> int:
        comp = start_bit
        frontier = start_bit
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                nxt |= adjacency[bit_index[low]] & mask & ~comp
            comp |= nxt
            frontier = nxt
        return comp

    def solve(mask: int) -> Tuple[float, int]:
        if mask == 0:
            return 0.0, 0
        cached = memo.get(mask)
        if cached is not None:
            return cached
        # Safe reductions: take any vertex whose weight dominates its
        # residual neighborhood (covers isolated vertices too).
        taken_weight = 0.0
        taken_mask = 0
        work = mask
        probe = work
        while probe:
            low = probe & -probe
            probe ^= low
            v = bit_index[low]
            neigh = adjacency[v] & work
            if neigh == 0:
                taken_weight += weights[v]
                taken_mask |= low
                work ^= low
                probe = work
                continue
            neigh_weight = 0.0
            nn = neigh
            while nn:
                nlow = nn & -nn
                nn ^= nlow
                neigh_weight += weights[bit_index[nlow]]
            if weights[v] >= neigh_weight:
                taken_weight += weights[v]
                taken_mask |= low
                work &= ~(low | neigh)
                probe = work
        if work == 0:
            result = (taken_weight, taken_mask)
            memo[mask] = result
            return result
        # Component splitting.
        comp = component_of(work & -work, work)
        if comp != work:
            w1, s1 = solve(comp)
            w2, s2 = solve(work ^ comp)
            result = (taken_weight + w1 + w2, taken_mask | s1 | s2)
            memo[mask] = result
            return result
        # Branch on the max-degree vertex of the component.
        pivot = -1
        pivot_deg = -1
        probe = work
        while probe:
            low = probe & -probe
            probe ^= low
            v = bit_index[low]
            deg = (adjacency[v] & work).bit_count()
            if deg > pivot_deg:
                pivot_deg = deg
                pivot = v
        pbit = 1 << pivot
        w_ex, s_ex = solve(work & ~pbit)
        w_in, s_in = solve(work & ~(adjacency[pivot] | pbit))
        w_in += weights[pivot]
        s_in |= pbit
        if w_in >= w_ex:
            result = (taken_weight + w_in, taken_mask | s_in)
        else:
            result = (taken_weight + w_ex, taken_mask | s_ex)
        memo[mask] = result
        return result

    return solve(full_mask)


def solve_mwis(graph, weights: Optional[Sequence[float]] = None) -> ExactSolution:
    """Convenience MWIS on a :class:`repro.graphs.graph.Graph`.

    Large graphs route through the MILP cutover like every other
    conflict-form instance; small ones use the bitset solver directly.
    """
    w = [1.0] * graph.n if weights is None else [float(x) for x in weights]
    if MILP_CUTOVER_PACKING is not None and graph.n > MILP_CUTOVER_PACKING:
        from repro.ilp.problems import max_independent_set_ilp

        return _solve_via_milp(max_independent_set_ilp(graph, w), "pack")
    adjacency = [0] * graph.n
    for u, v in graph.edges():
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    weight, mask = max_weight_independent_set(adjacency, w)
    chosen = frozenset(i for i in range(graph.n) if (mask >> i) & 1)
    return ExactSolution(weight=weight, chosen=chosen)


# ----------------------------------------------------------------------
# Structure detection
# ----------------------------------------------------------------------
def _forced_zero_vars(instance: PackingInstance) -> Set[int]:
    """Variables that no feasible packing solution can select."""
    forced: Set[int] = set()
    for con in instance.constraints:
        for v, coeff in con.coefficients.items():
            if coeff > con.bound + FEASIBILITY_TOL:
                forced.add(v)
    return forced


def _is_conflict_form(constraints: Sequence[Constraint]) -> bool:
    """All-ones coefficients with unit bounds: "choose <= 1 per support"."""
    for con in constraints:
        if abs(con.bound - 1.0) > FEASIBILITY_TOL:
            return False
        for coeff in con.coefficients.values():
            if abs(coeff - 1.0) > FEASIBILITY_TOL:
                return False
    return True


def _is_unit_covering_form(constraints: Sequence[Constraint]) -> bool:
    """All-ones coefficients with bounds <= 1 (set-cover shape)."""
    for con in constraints:
        if con.bound > 1.0 + FEASIBILITY_TOL:
            return False
        for coeff in con.coefficients.values():
            if abs(coeff - 1.0) > FEASIBILITY_TOL:
                return False
    return True


def _max_constraint_membership(
    constraints: Sequence[Constraint], active: Set[int]
) -> int:
    count: Dict[int, int] = {}
    for con in constraints:
        for v in con.coefficients:
            if v in active:
                count[v] = count.get(v, 0) + 1
    return max(count.values(), default=0)


# ----------------------------------------------------------------------
# Packing dispatcher
# ----------------------------------------------------------------------
def solve_packing_exact(
    instance: PackingInstance,
    subset: Optional[Iterable[int]] = None,
    cache: Optional[SolveCache] = None,
) -> ExactSolution:
    """Optimal solution of ``instance`` restricted to ``subset``.

    Restriction follows Observation 2.1 (outside variables forced to
    zero, all constraints kept).  The returned ``chosen`` set uses the
    *original* variable indices.
    """
    if subset is None:
        sub = instance
        key_subset: FrozenSet[int] = frozenset(range(instance.n))
    else:
        key_subset = frozenset(subset)
        sub = instance.restrict(key_subset)
    key = ("pack", _fingerprint(instance), key_subset)
    if cache is not None:
        found = cache.lookup(key)
        if found is not None:
            return found

    forced_zero = _forced_zero_vars(sub)
    active = {
        v
        for v in key_subset
        if sub.weights[v] > 0 and v not in forced_zero
    }
    # Drop constraints that cannot bind over active variables.
    live_constraints = []
    for con in sub.constraints:
        coeffs = {v: c for v, c in con.coefficients.items() if v in active}
        if not coeffs:
            continue
        if sum(coeffs.values()) <= con.bound + FEASIBILITY_TOL:
            continue
        live_constraints.append(Constraint(coeffs, con.bound))

    if not live_constraints:
        chosen = frozenset(active)
        solution = ExactSolution(instance.weight(chosen), chosen)
    elif _is_conflict_form(live_constraints):
        if _max_constraint_membership(live_constraints, active) <= 2:
            solution = _solve_matching_form(sub, active, live_constraints)
        elif (
            MILP_CUTOVER_PACKING is not None
            and len(active) > MILP_CUTOVER_PACKING
        ):
            solution = _solve_via_milp(
                PackingInstance(
                    sub.weights, live_constraints, name=sub.name
                ),
                "pack",
            )
        else:
            solution = _solve_conflict_form(sub, active, live_constraints)
    elif (
        MILP_CUTOVER_PACKING_GENERAL is not None
        and len(active) > MILP_CUTOVER_PACKING_GENERAL
    ):
        solution = _solve_via_milp(
            PackingInstance(sub.weights, live_constraints, name=sub.name),
            "pack",
        )
    else:
        solution = _solve_packing_bnb(sub, active, live_constraints)
    if cache is not None:
        cache.store(key, solution)
    return solution


def _fingerprint(instance) -> int:
    """Content fingerprint (memoized on the instance itself)."""
    return instance.fingerprint()


def _solve_conflict_form(
    sub: PackingInstance, active: Set[int], constraints: Sequence[Constraint]
) -> ExactSolution:
    """Conflict-form packing as MWIS on the conflict graph."""
    variables = sorted(active)
    index = {v: i for i, v in enumerate(variables)}
    adjacency = [0] * len(variables)
    for con in constraints:
        members = [index[v] for v in con.coefficients if v in index]
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                adjacency[a] |= 1 << b
                adjacency[b] |= 1 << a
    weights = [sub.weights[v] for v in variables]
    weight, mask = max_weight_independent_set(adjacency, weights)
    chosen = frozenset(
        variables[i] for i in range(len(variables)) if (mask >> i) & 1
    )
    return ExactSolution(weight=weight, chosen=chosen)


def _solve_matching_form(
    sub: PackingInstance, active: Set[int], constraints: Sequence[Constraint]
) -> ExactSolution:
    """Conflict form with <= 2 memberships per variable: blossom matching.

    Build a graph whose nodes are constraints (plus a private stub node
    for each variable appearing in fewer than two constraints); each
    variable is an edge joining its constraints.  A maximum-weight
    matching picks at most one variable per constraint — exactly the
    packing optimum.  Parallel variables between the same pair of
    constraints are thinned to the heaviest (only one could be picked).
    """
    import networkx as nx

    membership: Dict[int, List[int]] = {v: [] for v in active}
    for j, con in enumerate(constraints):
        for v in con.coefficients:
            if v in membership:
                membership[v].append(j)
    g = nx.Graph()
    stub = itertools.count(len(constraints))
    best_between: Dict[Tuple[int, int], Tuple[float, int]] = {}
    unconstrained = {v for v, cons in membership.items() if not cons}
    for v, cons in membership.items():
        w = sub.weights[v]
        if len(cons) == 0:
            continue  # free variables: always selected, added below
        if len(cons) == 1:
            endpoints = (cons[0], next(stub))
        else:
            endpoints = (min(cons), max(cons))
        if len(cons) <= 1:
            g.add_edge(*endpoints, weight=w, variable=v)
            continue
        prev = best_between.get(endpoints)
        if prev is None or w > prev[0]:
            best_between[endpoints] = (w, v)
    for (a, b), (w, v) in best_between.items():
        g.add_edge(a, b, weight=w, variable=v)
    matching = nx.max_weight_matching(g, maxcardinality=False)
    chosen = frozenset(g.edges[e]["variable"] for e in matching) | frozenset(
        unconstrained
    )
    return ExactSolution(weight=sub.weight(chosen), chosen=chosen)


def _solve_packing_bnb(
    sub: PackingInstance, active: Set[int], constraints: Sequence[Constraint]
) -> ExactSolution:
    """Generic packing branch-and-bound (arbitrary A, b >= 0).

    Variables ordered by weight descending; the admissible bound is the
    current value plus the suffix weight of variables that still fit
    individually.  Exponential in the worst case — local instances in
    the experiments keep this path small.
    """
    variables = sorted(active, key=lambda v: -sub.weights[v])
    weights = [sub.weights[v] for v in variables]
    suffix = [0.0] * (len(variables) + 1)
    for i in range(len(variables) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]
    rows: List[Dict[int, float]] = []
    bounds: List[float] = []
    var_rows: Dict[int, List[Tuple[int, float]]] = {v: [] for v in variables}
    for j, con in enumerate(constraints):
        rows.append(dict(con.coefficients))
        bounds.append(con.bound)
        for v, c in con.coefficients.items():
            if v in var_rows:
                var_rows[v].append((j, c))
    best_weight = -1.0
    best_set: Set[int] = set()
    usage = [0.0] * len(constraints)
    current: Set[int] = set()

    def fits(v: int) -> bool:
        return all(
            usage[j] + c <= bounds[j] + FEASIBILITY_TOL for j, c in var_rows[v]
        )

    def recurse(i: int, value: float) -> None:
        nonlocal best_weight, best_set
        if value > best_weight:
            best_weight = value
            best_set = set(current)
        if i >= len(variables):
            return
        if value + suffix[i] <= best_weight + FEASIBILITY_TOL:
            return
        v = variables[i]
        if fits(v):
            for j, c in var_rows[v]:
                usage[j] += c
            current.add(v)
            recurse(i + 1, value + weights[i])
            current.remove(v)
            for j, c in var_rows[v]:
                usage[j] -= c
        recurse(i + 1, value)

    recurse(0, 0.0)
    return ExactSolution(weight=best_weight, chosen=frozenset(best_set))


# ----------------------------------------------------------------------
# Covering dispatcher
# ----------------------------------------------------------------------
def solve_covering_exact(
    instance: CoveringInstance,
    subset: Optional[Iterable[int]] = None,
    fixed_ones: Iterable[int] = (),
    cache: Optional[SolveCache] = None,
) -> ExactSolution:
    """Optimal covering solution restricted to ``subset``.

    Restriction follows Observation 2.2 (only constraints inside the
    subset are kept); ``fixed_ones`` are variables already committed to
    one, whose contribution is subtracted from bounds and whose cost is
    *not* counted here.  Raises ``ValueError`` if the restricted
    instance is unsatisfiable.
    """
    fixed = frozenset(fixed_ones)
    if subset is None:
        key_subset = frozenset(range(instance.n)) - fixed
    else:
        key_subset = frozenset(subset) - fixed
    sub = instance.restrict(key_subset, fixed_ones=fixed)
    key = ("cover", _fingerprint(instance), key_subset, fixed)
    if cache is not None:
        found = cache.lookup(key)
        if found is not None:
            return found
    solution = _solve_covering_dispatch(sub, key_subset)
    if cache is not None:
        cache.store(key, solution)
    return solution


def solve_covering_subinstance(sub: CoveringInstance) -> ExactSolution:
    """Solve an already-restricted covering instance exactly."""
    return _solve_covering_dispatch(sub, set(range(sub.n)))


def _solve_covering_dispatch(
    sub: CoveringInstance, allowed: Set[int]
) -> ExactSolution:
    constraints = [c for c in sub.constraints if c.bound > FEASIBILITY_TOL]
    if not constraints:
        return ExactSolution(weight=0.0, chosen=frozenset())
    # Free variables (zero weight) are always worth taking.
    free = {
        v
        for con in constraints
        for v in con.coefficients
        if sub.weights[v] == 0 and v in allowed
    }
    if free:
        reduced = [c.reduce_by_fixed(free) for c in constraints]
        constraints = [c for c in reduced if c.bound > FEASIBILITY_TOL]
        if not constraints:
            return ExactSolution(weight=0.0, chosen=frozenset(free))
    for con in constraints:
        available = sum(con.coefficients.values())
        if available < con.bound - FEASIBILITY_TOL:
            raise ValueError(
                "restricted covering instance is unsatisfiable: "
                f"constraint needs {con.bound}, support provides {available}"
            )
    active_vars = {v for c in constraints for v in c.coefficients}
    if _is_unit_covering_form(constraints):
        supports = [set(c.coefficients) for c in constraints]
        if all(len(s) <= 2 for s in supports):
            base = _solve_vertex_cover_form(sub, constraints)
        elif (
            MILP_CUTOVER_COVERING is not None
            and len(active_vars) > MILP_CUTOVER_COVERING
        ):
            base = _solve_via_milp(
                CoveringInstance(sub.weights, constraints, name=sub.name),
                "cover",
            )
        else:
            base = _solve_set_cover_bnb(sub, constraints)
    elif (
        MILP_CUTOVER_COVERING_GENERAL is not None
        and len(active_vars) > MILP_CUTOVER_COVERING_GENERAL
    ):
        base = _solve_via_milp(
            CoveringInstance(sub.weights, constraints, name=sub.name),
            "cover",
        )
    else:
        base = _solve_covering_bnb(sub, constraints)
    return ExactSolution(weight=base.weight, chosen=base.chosen | frozenset(free))


def _solve_vertex_cover_form(
    sub: CoveringInstance, constraints: Sequence[Constraint]
) -> ExactSolution:
    """Supports of size <= 2: minimum-weight VC = complement of MWIS."""
    forced = {
        next(iter(c.coefficients))
        for c in constraints
        if len(c.coefficients) == 1
    }
    pair_constraints = [
        c for c in constraints if len(c.coefficients) == 2
        and not (set(c.coefficients) & forced)
    ]
    variables = sorted({v for c in pair_constraints for v in c.coefficients})
    index = {v: i for i, v in enumerate(variables)}
    adjacency = [0] * len(variables)
    for c in pair_constraints:
        a, b = sorted(c.coefficients)
        adjacency[index[a]] |= 1 << index[b]
        adjacency[index[b]] |= 1 << index[a]
    weights = [sub.weights[v] for v in variables]
    mis_weight, mis_mask = max_weight_independent_set(adjacency, weights)
    cover = {
        variables[i] for i in range(len(variables)) if not (mis_mask >> i) & 1
    }
    cover |= forced
    return ExactSolution(weight=sub.weight(cover), chosen=frozenset(cover))


def _solve_set_cover_bnb(
    sub: CoveringInstance, constraints: Sequence[Constraint]
) -> ExactSolution:
    """Unit-coefficient covering: branch on the hardest element."""
    elements = [frozenset(c.coefficients) for c in constraints]
    candidates: Dict[int, Set[int]] = {}
    for e, support in enumerate(elements):
        for v in support:
            candidates.setdefault(v, set()).add(e)
    # Initial upper bound: greedy weighted set cover.
    best_set = _greedy_unit_cover(sub, elements)
    best_weight = sub.weight(best_set)
    chosen: Set[int] = set()

    def lower_bound(uncovered: List[int]) -> float:
        blocked: Set[int] = set()
        bound = 0.0
        for e in sorted(uncovered, key=lambda e: len(elements[e])):
            support = elements[e]
            if support & blocked:
                continue
            bound += min(sub.weights[v] for v in support)
            blocked |= support
        return bound

    def recurse(uncovered: Set[int], value: float) -> None:
        nonlocal best_weight, best_set
        if not uncovered:
            if value < best_weight:
                best_weight = value
                best_set = set(chosen)
            return
        if value + lower_bound(list(uncovered)) >= best_weight - FEASIBILITY_TOL:
            return
        pivot = min(uncovered, key=lambda e: len(elements[e] - chosen))
        options = sorted(
            elements[pivot] - chosen, key=lambda v: sub.weights[v]
        )
        for v in options:
            newly = candidates[v] & uncovered
            chosen.add(v)
            recurse(uncovered - newly, value + sub.weights[v])
            chosen.remove(v)

    recurse(set(range(len(elements))), 0.0)
    return ExactSolution(weight=best_weight, chosen=frozenset(best_set))


def _greedy_unit_cover(
    sub: CoveringInstance, elements: Sequence[FrozenSet[int]]
) -> Set[int]:
    uncovered = set(range(len(elements)))
    chosen: Set[int] = set()
    coverage: Dict[int, Set[int]] = {}
    for e, support in enumerate(elements):
        for v in support:
            coverage.setdefault(v, set()).add(e)
    while uncovered:
        def score(v: int) -> float:
            gain = len(coverage[v] & uncovered)
            if gain == 0:
                return float("inf")
            cost = sub.weights[v]
            return cost / gain if cost > 0 else 0.0

        v = min(coverage, key=score)
        if not (coverage[v] & uncovered):
            raise ValueError("greedy cover stalled on unsatisfiable instance")
        chosen.add(v)
        uncovered -= coverage[v]
    return chosen


def _solve_covering_bnb(
    sub: CoveringInstance, constraints: Sequence[Constraint]
) -> ExactSolution:
    """Generic covering branch-and-bound (arbitrary A, b >= 0)."""
    variables = sorted({v for c in constraints for v in c.coefficients})
    var_rows: Dict[int, List[Tuple[int, float]]] = {v: [] for v in variables}
    bounds = [c.bound for c in constraints]
    for j, c in enumerate(constraints):
        for v, coeff in c.coefficients.items():
            var_rows[v].append((j, coeff))
    # Upper bound: take everything (validated satisfiable by caller).
    best_set = set(variables)
    best_weight = sub.weight(best_set)
    deficits = list(bounds)
    chosen: Set[int] = set()

    def recurse(remaining: List[int], value: float) -> None:
        nonlocal best_weight, best_set
        if all(d <= FEASIBILITY_TOL for d in deficits):
            if value < best_weight:
                best_weight = value
                best_set = set(chosen)
            return
        if value >= best_weight - FEASIBILITY_TOL:
            return
        if not remaining:
            return
        # Check satisfiability of the most-deficient constraint.
        worst = max(range(len(deficits)), key=lambda j: deficits[j])
        if deficits[worst] > FEASIBILITY_TOL:
            available = sum(
                c for v in remaining for j, c in var_rows[v] if j == worst
            )
            if available < deficits[worst] - FEASIBILITY_TOL:
                return
        v = remaining[0]
        rest = remaining[1:]
        # Branch include.
        for j, c in var_rows[v]:
            deficits[j] -= c
        chosen.add(v)
        recurse(rest, value + sub.weights[v])
        chosen.remove(v)
        for j, c in var_rows[v]:
            deficits[j] += c
        # Branch exclude.
        recurse(rest, value)

    ordered = sorted(
        variables,
        key=lambda v: -sum(c for _, c in var_rows[v]) / (sub.weights[v] + 1e-12),
    )
    recurse(ordered, 0.0)
    return ExactSolution(weight=best_weight, chosen=frozenset(best_set))
