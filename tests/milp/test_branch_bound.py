"""Unit and property tests for the MILP solver (HiGHS branch and bound).

Random small MILPs are verified against brute-force enumeration of the
integer grid.
"""

import pytest
from hypothesis import given, settings

from tests.oracles.milp import (
    BranchBoundOptions,
    LinExpr,
    Model,
    Solution,
    SolveStatus,
    solve_milp,
)

from tests.milp.oracles import brute_force, random_milp


class TestKnownMILPs:
    def test_knapsack(self):
        model = Model("knapsack")
        values = [10, 13, 7, 8]
        weights = [3, 4, 2, 3]
        xs = [model.binary_var(f"x{i}") for i in range(4)]
        model.add(LinExpr.total(w * x for w, x in zip(weights, xs)) <= 6)
        model.minimize(LinExpr.total(-v * x for v, x in zip(values, xs)))
        solution = solve_milp(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(-20)  # items 1 and 2 (13+7)

    def test_integer_rounding_matters(self):
        # LP relaxation gives x = 2.5; MILP must settle on 2.
        model = Model()
        x = model.integer_var("x", upper=10)
        model.add(2 * x <= 5)
        model.minimize(-x)
        solution = solve_milp(model)
        assert solution.objective == pytest.approx(-2)
        assert solution[x] == 2

    def test_infeasible_integrality(self):
        # 2x == 3 has a fractional-only solution.
        model = Model()
        x = model.integer_var("x", upper=5)
        model.add(2 * x.to_expr() == 3)
        solution = solve_milp(model)
        assert solution.status is SolveStatus.INFEASIBLE

    def test_plain_infeasible(self):
        model = Model()
        x = model.binary_var("x")
        model.add(x >= 2)
        solution = solve_milp(model)
        assert solution.status is SolveStatus.INFEASIBLE

    def test_feasibility_only_mode(self):
        model = Model()
        xs = [model.binary_var(f"x{i}") for i in range(6)]
        model.add(LinExpr.total(xs) >= 3)
        solution = solve_milp(model)  # zero objective: MILP1's shape
        assert solution.status is SolveStatus.OPTIMAL
        assert sum(solution[x] for x in xs) >= 3

    def test_assignment_problem(self):
        # 3 tasks to 3 machines; optimum is 1 + 2 + 8 = 11 (or 1 + 6 + 4).
        cost = [[1, 5, 9], [7, 2, 6], [1, 4, 8]]
        model = Model("assign")
        x = [
            [model.binary_var(f"x{i}{j}") for j in range(3)] for i in range(3)
        ]
        for i in range(3):
            model.add(LinExpr.total(x[i]) == 1)
        for j in range(3):
            model.add(LinExpr.total(x[i][j] for i in range(3)) == 1)
        model.minimize(
            LinExpr.total(
                cost[i][j] * x[i][j] for i in range(3) for j in range(3)
            )
        )
        solution = solve_milp(model)
        assert solution.objective == pytest.approx(11)
        chosen = {(i, j) for i in range(3) for j in range(3) if solution[x[i][j]] > 0.5}
        assert len(chosen) == 3
        assert sum(cost[i][j] for i, j in chosen) == pytest.approx(solution.objective)

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

    def test_node_limit_reported(self):
        model = Model()
        xs = [model.binary_var(f"x{i}") for i in range(10)]
        model.add(LinExpr.total(2 * x for x in xs) == 9)  # infeasible parity
        solution = solve_milp(model, BranchBoundOptions(node_limit=3))
        assert solution.status in (SolveStatus.NODE_LIMIT, SolveStatus.INFEASIBLE)


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(random_milp())
    def test_matches_enumeration(self, milp):
        c, rows, ub = milp
        model = Model()
        xs = [model.integer_var(f"x{i}", upper=u) for i, u in enumerate(ub)]
        for row, rhs in rows:
            model.add(LinExpr.total(a * x for a, x in zip(row, xs)) <= rhs)
        model.minimize(LinExpr.total(ci * x for ci, x in zip(c, xs)))
        solution = solve_milp(model)
        expected = brute_force(c, rows, ub)
        if expected is None:
            assert solution.status is SolveStatus.INFEASIBLE
        else:
            assert solution.status is SolveStatus.OPTIMAL
            assert solution.objective == pytest.approx(expected, abs=1e-6)
            # returned point must satisfy all constraints exactly
            point = [solution[x] for x in xs]
            for row, rhs in rows:
                assert sum(a * v for a, v in zip(row, point)) <= rhs + 1e-6


class TestSolutionObject:
    def test_value_default(self):
        model = Model()
        x = model.binary_var("x")
        solution = Solution(SolveStatus.OPTIMAL, objective=0.0, values={})
        assert solution.value(x, default=7.0) == 7.0

    def test_is_feasible(self):
        assert Solution(SolveStatus.OPTIMAL).is_feasible
        assert Solution(SolveStatus.FEASIBLE).is_feasible
        assert not Solution(SolveStatus.INFEASIBLE).is_feasible
