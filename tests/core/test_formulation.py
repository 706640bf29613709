"""Tests for the literal MILP formulation and solver cross-validation.

The specialized assignment solver and the Eq. 3-11 MILP must agree on
feasibility verdicts and binding objectives -- the paper's results cannot
depend on which solver answered.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CrossbarDesignProblem, SynthesisConfig, build_conflicts
from repro.core.assignment import solve_assignment
from repro.core.binding import binding_overlap_objective
from repro.core.formulation import (
    build_binding_model,
    build_feasibility_model,
)
from repro.core.search import search_minimum_buses
from repro.milp import BranchBoundOptions, SolveStatus, solve_milp

from tests.core.conftest import problem_from_activity
from tests.traffic.test_windows import random_trace


@st.composite
def design_problems(draw):
    """A random trace cut into short windows, or (three times as often)
    five or seven targets each busy 30-50% of one shared window.

    Random traces this small always design at the analytic lower bound,
    so the search never asks the solver a hard question. In the shared
    window at most two or three targets fit on a bus, and the minimum
    bus count exceeds the bound in about a quarter of the draws: the
    solver, not the bound, decides it."""
    if draw(st.integers(0, 3)) == 0:
        trace = draw(random_trace())
        return CrossbarDesignProblem.from_trace(
            trace, window_size=draw(st.integers(4, 40))
        )
    activity = [
        [(draw(st.integers(0, 60)), draw(st.integers(30, 50)))]
        for _ in range(draw(st.sampled_from([5, 7])))
    ]
    return problem_from_activity(activity, total_cycles=200, window_size=100)


@st.composite
def odd_conflict_cycles(draw):
    """Targets whose conflict graph is one odd cycle, labelled at random.

    Window ``w`` holds only the cycle neighbours ``order[w]`` and
    ``order[w + 1]``, both busy 31-49 of its 100 cycles from the same
    cycle on: each neighbour pair overlaps above a 0.3 threshold and
    still fits one bus's bandwidth, and no other pair ever shares a
    window. The largest conflict clique has two targets, but an odd
    cycle needs three buses: the solver, not the clique or bandwidth
    bound, has to rule out two."""
    length = draw(st.sampled_from([5, 7, 9]))
    order = draw(st.permutations(range(length)))
    activity = [[] for _ in range(length)]
    for window in range(length):
        durations = [draw(st.integers(31, 49)) for _ in range(2)]
        start = 100 * window + draw(st.integers(0, 100 - max(durations)))
        for target, duration in zip(
            (order[window], order[(window + 1) % length]), durations
        ):
            activity[target].append((start, duration))
    return problem_from_activity(
        activity, total_cycles=100 * length, window_size=100
    )


def conflicts_for(problem, threshold=0.3):
    return build_conflicts(problem, SynthesisConfig(overlap_threshold=threshold))


class TestModelStructure:
    def test_feasibility_model_variable_count(self, two_phase_problem):
        conflicts = conflicts_for(two_phase_problem, 0.5)
        crossbar = build_feasibility_model(two_phase_problem, conflicts, 2)
        # x variables only: 4 targets x 2 buses
        assert len(crossbar.model.variables) == 8
        assert crossbar.maxov is None

    def test_binding_model_has_objective(self, two_phase_problem):
        conflicts = conflicts_for(two_phase_problem, 0.5)
        crossbar = build_binding_model(two_phase_problem, conflicts, 2)
        assert crossbar.maxov is not None
        assert crossbar.model.objective.terms

    def test_extract_binding_renumbers_densely(self, two_phase_problem):
        conflicts = conflicts_for(two_phase_problem, 0.5)
        crossbar = build_feasibility_model(two_phase_problem, conflicts, 3)
        solution = solve_milp(
            crossbar.model, BranchBoundOptions(feasibility_only=True)
        )
        binding = crossbar.extract_binding(solution)
        used = max(binding) + 1
        assert set(binding) == set(range(used))


class TestSolverAgreement:
    def test_two_phase_feasibility_agrees(self, two_phase_problem):
        conflicts = conflicts_for(two_phase_problem, 0.5)
        for num_buses in (1, 2, 3):
            milp_model = build_feasibility_model(
                two_phase_problem, conflicts, num_buses
            )
            milp = solve_milp(
                milp_model.model, BranchBoundOptions(feasibility_only=True)
            )
            assignment = solve_assignment(
                two_phase_problem, conflicts, num_buses
            )
            assert milp.is_feasible == assignment.is_feasible

    def test_two_phase_binding_objective_agrees(self, two_phase_problem):
        conflicts = conflicts_for(two_phase_problem, 0.5)
        milp_model = build_binding_model(two_phase_problem, conflicts, 2)
        milp = solve_milp(milp_model.model)
        assignment = solve_assignment(
            two_phase_problem, conflicts, 2, optimize=True
        )
        assert milp.status is SolveStatus.OPTIMAL
        assert milp.objective == pytest.approx(assignment.objective)

    @settings(max_examples=15, deadline=None)
    @given(random_trace(), st.integers(1, 3))
    def test_feasibility_agreement_on_random_problems(self, trace, num_buses):
        problem = CrossbarDesignProblem.from_trace(
            trace, window_size=max(1, trace.total_cycles // 2)
        )
        conflicts = conflicts_for(problem, 0.25)
        milp_model = build_feasibility_model(problem, conflicts, num_buses)
        milp = solve_milp(
            milp_model.model, BranchBoundOptions(feasibility_only=True)
        )
        assignment = solve_assignment(problem, conflicts, num_buses)
        assert milp.is_feasible == assignment.is_feasible

    @settings(max_examples=10, deadline=None)
    @given(random_trace())
    def test_binding_objective_agreement_on_random_problems(self, trace):
        problem = CrossbarDesignProblem.from_trace(
            trace, window_size=max(1, trace.total_cycles // 2)
        )
        conflicts = conflicts_for(problem, 0.25)
        num_buses = 2
        assignment = solve_assignment(
            problem, conflicts, num_buses, optimize=True
        )
        milp_model = build_binding_model(problem, conflicts, num_buses)
        milp = solve_milp(milp_model.model)
        if assignment.is_feasible:
            assert milp.status is SolveStatus.OPTIMAL
            assert milp.objective == pytest.approx(float(assignment.objective))
            # MILP's binding must evaluate to its own objective value
            binding = milp_model.extract_binding(milp)
            assert binding_overlap_objective(problem, binding) == pytest.approx(
                milp.objective
            )
        else:
            assert milp.status is SolveStatus.INFEASIBLE

    @settings(max_examples=40, deadline=None)
    @given(
        design_problems(),
        st.sampled_from([0.25, 0.5]),
        st.sampled_from([None, 2, 3]),
    )
    def test_minimum_bus_count_agreement_on_random_problems(
        self, problem, threshold, maxtb
    ):
        # The whole Sec. 6 configuration search, once on HiGHS over the
        # literal Eq. 3-10 model and once on the DFS: every probe's
        # verdict, hence the minimum bus count, must match.
        dfs_config = SynthesisConfig(
            overlap_threshold=threshold, max_targets_per_bus=maxtb
        )
        milp_config = replace(dfs_config, backend="milp")
        conflicts = build_conflicts(problem, dfs_config)
        dfs = search_minimum_buses(problem, conflicts, dfs_config)
        milp = search_minimum_buses(problem, conflicts, milp_config)
        assert milp.num_buses == dfs.num_buses
        assert milp.probes == dfs.probes

    @settings(max_examples=15, deadline=None)
    @given(odd_conflict_cycles(), st.sampled_from([None, 2, 3]))
    def test_odd_conflict_cycles_need_three_buses_on_both_solvers(
        self, problem, maxtb
    ):
        # Chromatic number above the clique bound: a formulation whose
        # Eq. 7 conflict rows let two conflicting targets share a bus
        # answers two.
        dfs_config = SynthesisConfig(
            overlap_threshold=0.3, max_targets_per_bus=maxtb
        )
        conflicts = build_conflicts(problem, dfs_config)
        assert conflicts.clique_lower_bound() == 2
        dfs = search_minimum_buses(problem, conflicts, dfs_config)
        milp = search_minimum_buses(
            problem, conflicts, replace(dfs_config, backend="milp")
        )
        per_bus_bound = (
            1 if maxtb is None else math.ceil(problem.num_targets / maxtb)
        )
        assert dfs.num_buses == max(3, per_bus_bound)
        assert milp.num_buses == dfs.num_buses
        assert milp.probes == dfs.probes
