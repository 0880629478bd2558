"""Tests for ILP instances and the Section 2 restriction semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.graphs import erdos_renyi_connected
from repro.ilp import (
    FEASIBILITY_TOL,
    Constraint,
    CoveringInstance,
    MwuProblem,
    PackingInstance,
    max_independent_set_ilp,
    min_dominating_set_ilp,
    solve_covering_exact,
    solve_packing_exact,
)


def _rows(inst):
    """The instance's rows as ``(coefficient dict, bound)`` pairs."""
    ptr = inst.indptr.tolist()
    cols, vals = inst.indices.tolist(), inst.data.tolist()
    return [
        (dict(zip(cols[a:b], vals[a:b], strict=True)), bound)
        for a, b, bound in zip(ptr[:-1], ptr[1:], inst.bounds.tolist(), strict=True)
    ]


# ----------------------------------------------------------------------
# Dict-row oracle of the Observation 2.1 / 2.2 restriction semantics.
# ----------------------------------------------------------------------
def _reduce(coeffs, bound, fixed):
    contributed = sum(c for v, c in coeffs.items() if v in fixed)
    remaining = {v: c for v, c in coeffs.items() if v not in fixed}
    return remaining, max(0.0, bound - contributed)


def _oracle_packing_restrict(rows, keep):
    out = []
    for coeffs, bound in rows:
        clipped = {v: c for v, c in coeffs.items() if v in keep}
        if clipped:
            out.append((clipped, bound))
    return out


def _oracle_covering_restrict(rows, keep, fixed):
    out = []
    for coeffs, bound in rows:
        if fixed:
            coeffs, bound = _reduce(coeffs, bound, fixed)
        if bound <= FEASIBILITY_TOL or not set(coeffs) <= keep:
            continue
        out.append((coeffs, bound))
    return out


def _oracle_restrict_to_edges(rows, edges, fixed):
    out = []
    for j in sorted(set(edges)):
        coeffs, bound = rows[j]
        if fixed:
            coeffs, bound = _reduce(coeffs, bound, fixed)
        if bound > FEASIBILITY_TOL:
            out.append((coeffs, bound))
    return out


def _random_rows(rng, n):
    """Rows with clipped-away supports, bounds that fixing exhausts and
    coefficients above their bound."""
    rows = []
    for _ in range(int(rng.integers(0, 7))):
        size = int(rng.integers(0, n + 1))
        support = [int(v) for v in rng.permutation(n)[:size]]
        coeffs = {v: float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0])) for v in support}
        part = [c for c in coeffs.values() if rng.random() < 0.5]
        bound = float(rng.choice([0.0, 1.0, 2.5, sum(part)]))
        rows.append((coeffs, bound))
    return rows


def _random_subset(rng, n):
    return {int(v) for v in np.flatnonzero(rng.random(n) < 0.5)}


def _assert_rows_equal(got, want):
    assert len(got) == len(want)
    for (coeffs, bound), (want_coeffs, want_bound) in zip(got, want, strict=True):
        assert list(coeffs.items()) == list(want_coeffs.items())
        assert bound == pytest.approx(want_bound, abs=1e-12)


class TestRestrictionAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_packing_restrict(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        rows = _random_rows(rng, n)
        weights = [float(w) for w in rng.integers(0, 5, size=n)]
        inst = PackingInstance(weights, [Constraint(c, b) for c, b in rows])
        keep = _random_subset(rng, n)
        sub = inst.restrict(keep)
        _assert_rows_equal(_rows(sub), _oracle_packing_restrict(rows, keep))
        want = [w if v in keep else 0.0 for v, w in enumerate(weights)]
        assert sub.weights.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_covering_restrict(self, seed, with_fixed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        rows = _random_rows(rng, n)
        weights = [float(w) for w in rng.integers(0, 5, size=n)]
        inst = CoveringInstance(weights, [Constraint(c, b) for c, b in rows])
        fixed = _random_subset(rng, n) if with_fixed else set()
        keep = _random_subset(rng, n) - fixed
        sub = inst.restrict(keep, fixed_ones=fixed)
        _assert_rows_equal(_rows(sub), _oracle_covering_restrict(rows, keep, fixed))
        want = [w if v in keep else 0.0 for v, w in enumerate(weights)]
        assert sub.weights.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_restrict_to_edges(self, seed, with_fixed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        rows = _random_rows(rng, n)
        inst = CoveringInstance([1.0] * n, [Constraint(c, b) for c, b in rows])
        fixed = _random_subset(rng, n) if with_fixed else set()
        edges = [int(j) for j in rng.integers(0, max(1, len(rows)), size=len(rows))]
        sub = inst.restrict_to_edges(edges, fixed_ones=fixed)
        _assert_rows_equal(_rows(sub), _oracle_restrict_to_edges(rows, edges, fixed))
        assert sub.weights.tolist() == [1.0] * n


class TestMalformedInput:
    @pytest.mark.parametrize("cls", [PackingInstance, CoveringInstance])
    @pytest.mark.parametrize(
        "weights, constraint, match",
        [
            ([1, 1], Constraint({0: 0.0}, 1.0), "must be > 0"),
            ([1, 1], Constraint({0: -2.0}, 1.0), "must be > 0"),
            ([1, 1], Constraint({0: 1.0}, -1.0), "bound of constraint 0"),
            ([1, 1], Constraint({2: 1.0}, 1.0), "outside"),
            ([1, 1], Constraint({-1: 1.0}, 1.0), "outside"),
            ([1, -1], Constraint({0: 1.0}, 1.0), "weight of variable 1"),
        ],
    )
    def test_constructor_rejects(self, cls, weights, constraint, match):
        with pytest.raises(ValueError, match=match):
            cls(weights, [constraint])

    def test_from_csr_rejects_inconsistent_indptr(self):
        with pytest.raises(ValueError, match="inconsistent"):
            PackingInstance.from_csr([1, 1], [0, 3], [0, 1], [1.0, 1.0], [1.0])

    def test_from_csr_rejects_repeated_variable(self):
        with pytest.raises(ValueError, match="variable 1 .*repeated"):
            PackingInstance.from_csr([1, 1], [0, 2], [1, 1], [1.0, 1.0], [1.0])

    def test_out_of_range_variables_rejected(self):
        inst = CoveringInstance([1, 1], [Constraint({0: 1.0, 1: 1.0}, 1.0)])
        for bad in ({-1}, {2}):
            with pytest.raises(ValueError, match="outside"):
                inst.is_feasible(bad)
            with pytest.raises(ValueError, match="outside"):
                inst.restrict(bad)
        with pytest.raises(ValueError, match="outside"):
            inst.restrict_to_edges([1])

    def test_arrays_are_frozen(self):
        inst = PackingInstance([1, 1], [Constraint({0: 1.0, 1: 1.0}, 1.0)])
        with pytest.raises(ValueError):
            inst.data[0] = 5.0


class TestFeasibilityBoundary:
    def test_packing_tolerance_boundary(self):
        at = PackingInstance([1], [Constraint({0: 1.0 + FEASIBILITY_TOL}, 1.0)])
        over = PackingInstance([1], [Constraint({0: 1.0 + 2 * FEASIBILITY_TOL}, 1.0)])
        assert at.is_feasible({0})
        assert not over.is_feasible({0})

    def test_covering_tolerance_boundary(self):
        at = CoveringInstance([1], [Constraint({0: 1.0 - FEASIBILITY_TOL}, 1.0)])
        under = CoveringInstance([1], [Constraint({0: 1.0 - 2 * FEASIBILITY_TOL}, 1.0)])
        assert at.is_feasible({0}) and at.is_satisfiable()
        assert not under.is_feasible({0}) and not under.is_satisfiable()


def _coo_problem(instance):
    """MwuProblem built the pre-array way: per-row loop, COO -> CSR."""
    packing = isinstance(instance, PackingInstance)
    weights = np.array(instance.weights, dtype=np.float64)
    rows, cols, data, bounds, forced = [], [], [], [], []
    for coeffs, bound in _rows(instance):
        if bound <= FEASIBILITY_TOL:
            if packing:
                forced.extend(coeffs)
            continue
        for v, c in sorted(coeffs.items()):
            rows.append(len(bounds))
            cols.append(v)
            data.append(c)
        bounds.append(bound)
    weights[sorted(set(forced))] = 0.0
    matrix = sparse.csr_matrix(
        (data, (rows, cols)), shape=(len(bounds), instance.n), dtype=np.float64
    )
    matrix.sum_duplicates()
    return weights, matrix, np.asarray(bounds, dtype=np.float64)


class TestMwuView:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([PackingInstance, CoveringInstance]))
    def test_from_instance_matches_coo_construction(self, seed, cls):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        rows = _random_rows(rng, n)
        weights = [float(w) for w in rng.integers(1, 5, size=n)]
        inst = cls(weights, [Constraint(c, b) for c, b in rows])
        problem = MwuProblem.from_instance(inst)
        want_weights, want_matrix, want_bounds = _coo_problem(inst)
        assert np.array_equal(problem.weights, want_weights)
        assert np.array_equal(problem.bounds, want_bounds)
        assert problem.matrix.shape == want_matrix.shape
        for part in ("indptr", "indices", "data"):
            got, want = getattr(problem.matrix, part), getattr(want_matrix, part)
            assert np.array_equal(got, want)

    def test_zero_bound_packing_rows_zero_their_weights(self):
        inst = PackingInstance(
            [5.0, 4.0, 3.0],
            [Constraint({2: 1.0, 0: 2.0}, 0.0), Constraint({1: 1.0, 2: 1.0}, 1.0)],
        )
        problem = MwuProblem.from_instance(inst)
        assert problem.weights.tolist() == [0.0, 4.0, 0.0]
        assert problem.matrix.toarray().tolist() == [[0.0, 1.0, 1.0]]
        assert inst.weights.tolist() == [5.0, 4.0, 3.0]  # the instance is untouched


class TestPackingInstance:
    def test_feasibility(self):
        inst = PackingInstance(
            [1, 1, 1], [Constraint({0: 1.0, 1: 1.0}, 1.0)]
        )
        assert inst.is_feasible({0, 2})
        assert not inst.is_feasible({0, 1})

    def test_weights(self):
        inst = PackingInstance([2, 3, 5], [])
        assert inst.weight({0, 2}) == 7
        assert inst.weight_on({0, 1, 2}, {1}) == 3

    def test_hypergraph(self):
        inst = PackingInstance(
            [1, 1, 1], [Constraint({0: 1.0, 1: 1.0}, 1.0)]
        )
        h = inst.hypergraph()
        assert h.n == 3
        assert h.m == 1
        assert h.edge(0) == frozenset({0, 1})

    def test_restriction_never_infeasible(self):
        """Observation 2.1: the local packing instance keeps all
        constraints but can always be satisfied (outside vars = 0)."""
        inst = PackingInstance(
            [1, 1], [Constraint({0: 1.0, 1: 1.0}, 1.0)]
        )
        sub = inst.restrict({0})
        assert sub.is_feasible({0})
        assert sub.weights[1] == 0.0


class TestCoveringInstance:
    def test_feasibility(self):
        inst = CoveringInstance(
            [1, 1], [Constraint({0: 1.0, 1: 1.0}, 1.0)]
        )
        assert inst.is_feasible({0})
        assert not inst.is_feasible(set())

    def test_restriction_drops_crossing_constraints(self):
        """Observation 2.2: only constraints inside S are kept."""
        inst = CoveringInstance(
            [1, 1, 1],
            [
                Constraint({0: 1.0, 1: 1.0}, 1.0),
                Constraint({1: 1.0, 2: 1.0}, 1.0),
            ],
        )
        sub = inst.restrict({0, 1})
        assert sub.m == 1
        assert sub.indices.tolist() == [0, 1]

    def test_restriction_with_fixed_ones(self):
        inst = CoveringInstance(
            [1, 1, 1],
            [Constraint({0: 1.0, 1: 1.0, 2: 1.0}, 2.0)],
        )
        sub = inst.restrict({1, 2}, fixed_ones={0})
        assert sub.m == 1
        assert sub.bounds.tolist() == [1.0]
        satisfied = inst.restrict({1, 2}, fixed_ones={0, 1})
        assert satisfied.m == 0  # bound reached, constraint dropped

    def test_restrict_to_edges(self):
        inst = CoveringInstance(
            [1, 1, 1],
            [
                Constraint({0: 1.0}, 1.0),
                Constraint({1: 1.0, 2: 1.0}, 1.0),
            ],
        )
        sub = inst.restrict_to_edges([1])
        assert sub.m == 1
        assert sub.indices.tolist() == [1, 2]

    def test_is_satisfiable(self):
        sat = CoveringInstance([1], [Constraint({0: 1.0}, 1.0)])
        assert sat.is_satisfiable()
        unsat = CoveringInstance([1], [Constraint({0: 1.0}, 2.0)])
        assert not unsat.is_satisfiable()


class TestObservationInequalities:
    """Property tests of Observations 2.1 and 2.2 on random instances."""

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000))
    def test_observation_2_1(self, seed):
        rng = np.random.default_rng(seed)
        g = erdos_renyi_connected(12, 0.25, rng)
        inst = max_independent_set_ilp(g)
        optimum = solve_packing_exact(inst)
        subset = {int(v) for v in rng.choice(12, size=6, replace=False)}
        closed = set(subset)
        for v in subset:
            closed.update(g.neighbors(v))
        w_star_s = inst.weight_on(optimum.chosen, subset)
        local = solve_packing_exact(inst, subset=subset)
        w_star_n1s = inst.weight_on(optimum.chosen, closed)
        # W(P*, S) <= W(P_local_S, S) <= W(P*, N^1(S))
        assert w_star_s <= local.weight + 1e-9
        assert local.weight <= w_star_n1s + 1e-9

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10_000))
    def test_observation_2_2(self, seed):
        rng = np.random.default_rng(seed)
        g = erdos_renyi_connected(12, 0.25, rng)
        inst = min_dominating_set_ilp(g)
        optimum = solve_covering_exact(inst)
        subset = {int(v) for v in rng.choice(12, size=8, replace=False)}
        local = solve_covering_exact(inst, subset=subset)
        w_star_s = inst.weight_on(optimum.chosen, subset)
        # W(Q_local_S, S) <= W(Q*, S) <= W(Q*, V)
        assert local.weight <= w_star_s + 1e-9
        assert w_star_s <= optimum.weight + 1e-9
