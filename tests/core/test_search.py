"""Unit tests for the binary configuration search."""

from hypothesis import given, settings

from repro.core import (
    CrossbarDesignProblem,
    SynthesisConfig,
    build_conflicts,
    optimize_binding,
)
from repro.core.assignment import solve_assignment
from repro.core.search import search_minimum_buses
from tests.oracles.milp.reference import assert_matches_dfs

from tests.core.conftest import problem_from_activity
from tests.traffic.test_windows import random_trace


def run_search(problem, config=None):
    config = config or SynthesisConfig(max_targets_per_bus=None)
    conflicts = build_conflicts(problem, config)
    return search_minimum_buses(problem, conflicts, config), conflicts, config


class TestKnownInstances:
    def test_two_phase_needs_two_buses(self, two_phase_problem):
        outcome, _, _ = run_search(two_phase_problem)
        assert outcome.num_buses == 2

    def test_light_traffic_needs_one_bus(self):
        problem = problem_from_activity(
            [[(0, 10)], [(30, 10)], [(60, 10)]],
            total_cycles=100,
            window_size=100,
        )
        outcome, _, _ = run_search(problem)
        assert outcome.num_buses == 1

    def test_conflict_clique_drives_count(self):
        # three mutually overlapping targets force three buses even
        # though bandwidth alone would need two
        problem = problem_from_activity(
            [[(0, 40)], [(0, 40)], [(0, 40)]],
            total_cycles=100,
            window_size=100,
        )
        config = SynthesisConfig(
            overlap_threshold=0.3, max_targets_per_bus=None
        )
        outcome, _, _ = run_search(problem, config)
        assert outcome.num_buses == 3
        assert outcome.lower_bound == 3  # clique bound found it analytically

    def test_maxtb_bound_enters_search(self):
        problem = problem_from_activity(
            [[(i * 10, 5)] for i in range(6)],
            total_cycles=100,
            window_size=100,
        )
        config = SynthesisConfig(max_targets_per_bus=2)
        outcome, _, _ = run_search(problem, config)
        assert outcome.num_buses == 3  # ceil(6 / 2)

    def test_witness_binding_is_feasible(self, two_phase_problem):
        from repro.core import audit_binding

        outcome, conflicts, config = run_search(two_phase_problem)
        assert not audit_binding(
            two_phase_problem,
            conflicts,
            outcome.feasible_binding,
            config.max_targets_per_bus,
        )

    def test_probes_record_trajectory(self, two_phase_problem):
        outcome, _, _ = run_search(two_phase_problem)
        assert outcome.probes[outcome.num_buses] is True
        # every probed count below the answer must have been infeasible
        for count, feasible in outcome.probes.items():
            assert feasible == (count >= outcome.num_buses)


class TestMinimality:
    @settings(max_examples=20, deadline=None)
    @given(random_trace())
    def test_result_is_minimal(self, trace):
        problem = CrossbarDesignProblem.from_trace(
            trace, window_size=max(1, trace.total_cycles // 3)
        )
        config = SynthesisConfig(max_targets_per_bus=None)
        conflicts = build_conflicts(problem, config)
        outcome = search_minimum_buses(problem, conflicts, config)
        # feasible at the answer
        assert solve_assignment(
            problem, conflicts, outcome.num_buses
        ).is_feasible
        # infeasible just below it
        if outcome.num_buses > 1:
            assert not solve_assignment(
                problem, conflicts, outcome.num_buses - 1
            ).is_feasible

    @settings(max_examples=15, deadline=None)
    @given(random_trace())
    def test_lower_bound_is_sound(self, trace):
        problem = CrossbarDesignProblem.from_trace(
            trace, window_size=max(1, trace.total_cycles // 3)
        )
        config = SynthesisConfig(max_targets_per_bus=None)
        conflicts = build_conflicts(problem, config)
        outcome = search_minimum_buses(problem, conflicts, config)
        assert outcome.lower_bound <= outcome.num_buses

    def test_milp_backend_agrees_with_assignment(self, two_phase_problem):
        outcome, conflicts, config = run_search(two_phase_problem)
        binding = optimize_binding(
            two_phase_problem, conflicts, outcome.num_buses, config
        )
        assert_matches_dfs(two_phase_problem, conflicts, None, outcome, binding)
