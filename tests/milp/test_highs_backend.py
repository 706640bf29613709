"""HiGHS through ``scipy.optimize.milp``: edge cases.

HiGHS need not return the same *point* on degenerate optima as the
assignment DFS, so the oracle compares verdicts and objectives, and
checks the DFS's points against the model (see
``tests/core/test_backend_equivalence.py``).
"""

import pytest
from hypothesis import given, settings

from tests.oracles.milp import (
    BranchBoundOptions,
    LinExpr,
    Model,
    SolveStatus,
    solve_milp,
)

from tests.milp.oracles import brute_force, random_milp


def _knapsack():
    model = Model("knapsack")
    values = [10, 13, 7, 8]
    weights = [3, 4, 2, 3]
    xs = [model.binary_var(f"x{i}") for i in range(4)]
    model.add(LinExpr.total(w * x for w, x in zip(weights, xs)) <= 6)
    model.minimize(LinExpr.total(-v * x for v, x in zip(values, xs)))
    return model, xs


class TestHighsBackend:
    def test_knapsack_optimal(self):
        model, _ = _knapsack()
        solution = solve_milp(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(-20)
        assert solution.nodes >= 0

    def test_infeasible(self):
        model = Model()
        x = model.binary_var("x")
        model.add(x >= 2)
        solution = solve_milp(model)
        assert solution.status is SolveStatus.INFEASIBLE

    def test_infeasible_integrality(self):
        model = Model()
        x = model.integer_var("x", upper=5)
        model.add(2 * x.to_expr() == 3)
        solution = solve_milp(model)
        assert solution.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        model = Model()
        y = model.continuous_var("y")  # upper defaults to +inf
        model.minimize(-1 * y)
        solution = solve_milp(model)
        assert solution.status is SolveStatus.UNBOUNDED

    def test_degenerate_ties_agree_on_objective(self):
        # Two symmetric optima: HiGHS may pick either point but must
        # report the one optimal value.
        model = Model()
        a = model.binary_var("a")
        b = model.binary_var("b")
        model.add(a + b == 1)
        model.minimize(a + b)
        highs = solve_milp(model)
        assert highs.status is SolveStatus.OPTIMAL
        assert highs.objective == pytest.approx(1.0)
        assert (highs[a], highs[b]) in ((0.0, 1.0), (1.0, 0.0))

    def test_zero_objective_feasibility(self):
        # MILP1 has no objective; the HiGHS tier solves it with a zero
        # objective and any feasible point is optimal.
        model = Model()
        xs = [model.binary_var(f"x{i}") for i in range(6)]
        model.add(LinExpr.total(xs) >= 3)
        solution = solve_milp(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert sum(solution[x] for x in xs) >= 3

    def test_mixed_integer_continuous(self):
        model = Model()
        x = model.integer_var("x", upper=4)
        y = model.continuous_var("y", upper=10)
        model.add(x + y <= 5.5)
        model.minimize(-2 * x - y)
        solution = solve_milp(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution[x] == 4
        assert solution.value(y) == pytest.approx(1.5)

    def test_time_limit_still_solves_tiny_model(self):
        # A generous deadline must not change the answer; the status
        # stays OPTIMAL because HiGHS finishes well within it.
        model, _ = _knapsack()
        solution = solve_milp(
            model, BranchBoundOptions(time_limit=30.0)
        )
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(-20)


class TestHighsAgainstBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(random_milp())
    def test_matches_enumeration(self, milp):
        # With a deadline that never fires, the answer is the oracle's.
        c, rows, ub = milp
        model = Model()
        xs = [model.integer_var(f"x{i}", upper=u) for i, u in enumerate(ub)]
        for row, rhs in rows:
            model.add(LinExpr.total(a * x for a, x in zip(row, xs)) <= rhs)
        model.minimize(LinExpr.total(ci * x for ci, x in zip(c, xs)))
        solution = solve_milp(model, BranchBoundOptions(time_limit=60.0))
        expected = brute_force(c, rows, ub)
        if expected is None:
            assert solution.status is SolveStatus.INFEASIBLE
        else:
            assert solution.status is SolveStatus.OPTIMAL
            assert not solution.timed_out
            assert solution.objective == pytest.approx(expected, abs=1e-6)
