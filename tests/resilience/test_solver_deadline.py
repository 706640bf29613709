"""Solver limits and the ``solver.slow`` fault point.

Two properties, both load-bearing:

* **Status mapping** (the literal-MILP oracle, ``tests/oracles/milp``):
  HiGHS reports a node or time limit as one status (1), with or
  without an incumbent. ``solve_milp`` maps it, and every other status,
  onto :class:`SolveStatus` -- a deadline returns the
  best incumbent flagged ``timed_out`` (or a bare ``TIME_LIMIT``)
  instead of running unboundedly. The mapping is tested on stubbed
  ``scipy.optimize.milp`` results, so every branch is reached without
  depending on how fast HiGHS is on this machine.
* **Fault injection**: ``solver.slow`` stretches the assignment
  solver's node latency without changing its answer, and costs nothing
  when no plan arms it.
"""

import types

import numpy as np
import pytest
import scipy.optimize

from repro.core import SynthesisConfig, build_conflicts, optimize_binding
from repro.errors import SolverError
from repro.resilience import FaultPlan, FaultRule, install_plan, solver_slowdown
from tests.oracles.milp import (
    BranchBoundOptions,
    LinExpr,
    Model,
    SolveStatus,
    solve_milp,
)

from tests.core.conftest import problem_from_activity

# Items 1 and 2: the knapsack optimum, objective -20.
OPTIMUM = np.array([0.0, 1.0, 1.0, 0.0])


def knapsack():
    model = Model("knapsack")
    values = [10, 13, 7, 8]
    weights = [3, 4, 2, 3]
    xs = [model.binary_var(f"x{i}") for i in range(4)]
    model.add(LinExpr.total(w * x for w, x in zip(weights, xs)) <= 6)
    model.minimize(LinExpr.total(-v * x for v, x in zip(values, xs)))
    return model, xs


@pytest.fixture
def highs_result(monkeypatch):
    """Make ``scipy.optimize.milp`` return a chosen result."""

    def stub(status, x=None, fun=None, nodes=7):
        result = types.SimpleNamespace(
            status=status, x=x, fun=fun, message="stubbed",
            mip_node_count=nodes,
        )
        monkeypatch.setattr(
            scipy.optimize, "milp", lambda *args, **kwargs: result
        )

    return stub


def solution_fields(solution, xs):
    return (
        solution.status,
        solution.objective,
        solution.nodes,
        solution.timed_out,
        [solution[x] for x in xs],
    )


class TestEquivalenceGate:
    def test_no_deadline_and_unreachable_deadline_are_identical(self):
        model_a, xs_a = knapsack()
        model_b, xs_b = knapsack()
        bare = solve_milp(model_a)
        bounded = solve_milp(
            model_b, BranchBoundOptions(time_limit=3600.0)
        )
        assert solution_fields(bare, xs_a) == solution_fields(bounded, xs_b)
        assert bare.status is SolveStatus.OPTIMAL
        assert not bare.timed_out

    def test_default_options_carry_no_deadline(self):
        assert BranchBoundOptions().time_limit is None


class TestDeadlineExpiry:
    def test_expiry_before_any_incumbent_reports_time_limit(
        self, highs_result
    ):
        highs_result(1)
        model, _xs = knapsack()
        solution = solve_milp(model, BranchBoundOptions(time_limit=1.5))
        assert solution.status is SolveStatus.TIME_LIMIT
        assert solution.timed_out
        assert solution.objective is None
        assert not solution.is_feasible

    def test_expiry_after_incumbent_returns_it_flagged(self, highs_result):
        highs_result(1, x=OPTIMUM, fun=-20.0)
        model, xs = knapsack()
        solution = solve_milp(model, BranchBoundOptions(time_limit=2.5))
        assert solution.status is SolveStatus.FEASIBLE
        assert solution.timed_out
        assert solution.objective == pytest.approx(-20)
        assert solution.is_feasible
        assert [solution[x] for x in xs] == [0.0, 1.0, 1.0, 0.0]

    def test_deadline_respects_node_accounting(self, highs_result):
        highs_result(1, nodes=2)
        model, _xs = knapsack()
        solution = solve_milp(model, BranchBoundOptions(time_limit=1.5))
        # The reported count is HiGHS's own MIP node count.
        assert solution.nodes == 2


class TestStatusMapping:
    def test_limit_with_incumbent_and_no_deadline_is_not_timed_out(
        self, highs_result
    ):
        highs_result(1, x=OPTIMUM, fun=-20.0)
        solution = solve_milp(knapsack()[0])
        assert solution.status is SolveStatus.FEASIBLE
        assert not solution.timed_out

    def test_limit_without_incumbent_or_deadline_is_the_node_budget(
        self, highs_result
    ):
        highs_result(1)
        solution = solve_milp(knapsack()[0])
        assert solution.status is SolveStatus.NODE_LIMIT
        assert not solution.timed_out

    def test_infeasible(self, highs_result):
        highs_result(2)
        assert solve_milp(knapsack()[0]).status is SolveStatus.INFEASIBLE

    def test_unbounded(self, highs_result):
        highs_result(3)
        assert solve_milp(knapsack()[0]).status is SolveStatus.UNBOUNDED

    @pytest.mark.parametrize("status", [4, -1])
    def test_any_other_status_raises(self, highs_result, status):
        highs_result(status)
        with pytest.raises(SolverError, match="stubbed"):
            solve_milp(knapsack()[0])


@pytest.fixture
def problem():
    activity = [
        [(0, 60), (200, 60)],
        [(100, 60), (300, 60)],
        [(0, 30), (210, 30)],
        [(110, 30), (310, 30)],
        [(40, 20), (260, 20)],
        [(140, 20), (360, 20)],
    ]
    return problem_from_activity(activity, total_cycles=400, window_size=100)


def bind(problem):
    config = SynthesisConfig()
    conflicts = build_conflicts(problem, config)
    return optimize_binding(problem, conflicts, 2, config)


class TestSlowSolverInjection:
    def test_fires_max_hits_keeps_binding(self, problem):
        clean = bind(problem)
        plan = FaultPlan(
            rules={
                "solver.slow": FaultRule(rate=1.0, delay_s=0.001, max_hits=2)
            }
        )
        install_plan(plan)
        slowed = bind(problem)
        assert plan.fired() == {"solver.slow": 2}
        assert slowed == clean

    def test_injection_off_means_no_latency(self, problem):
        assert solver_slowdown() is None
        install_plan(FaultPlan(rules={"io.transient": FaultRule()}))
        assert solver_slowdown() is None
        assert bind(problem).optimal
