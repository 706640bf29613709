"""Unit tests for binding optimization, random binding and the audit."""

import pytest
from hypothesis import given, settings

from repro.core import (
    CrossbarDesignProblem,
    SynthesisConfig,
    audit_binding,
    build_conflicts,
    optimize_binding,
    random_feasible_binding,
)
from repro.core.binding import binding_overlap_objective
from repro.errors import SynthesisError, ValidationError
from tests.oracles.milp.formulation import build_binding_model
from tests.oracles.milp.reference import is_model_point, milp2_objective

from tests.core.conftest import problem_from_activity
from tests.traffic.test_windows import random_trace


class TestOptimizeBinding:
    def test_two_phase_zero_overlap(self, two_phase_problem, default_config):
        conflicts = build_conflicts(two_phase_problem, default_config)
        binding = optimize_binding(
            two_phase_problem, conflicts, 2, default_config
        )
        assert binding.max_bus_overlap == 0
        assert binding.optimal
        assert binding.num_buses == 2

    def test_infeasible_raises(self, two_phase_problem, default_config):
        conflicts = build_conflicts(two_phase_problem, default_config)
        with pytest.raises(SynthesisError):
            optimize_binding(two_phase_problem, conflicts, 1, default_config)

    def test_milp_backend_matches(self, two_phase_problem, default_config):
        conflicts = build_conflicts(two_phase_problem, default_config)
        fast = optimize_binding(two_phase_problem, conflicts, 2, default_config)
        maxtb = default_config.max_targets_per_bus
        objective = milp2_objective(two_phase_problem, conflicts, 2, maxtb)
        assert fast.max_bus_overlap == objective
        model = build_binding_model(two_phase_problem, conflicts, 2, maxtb)
        assert is_model_point(model, fast.binding, objective)

    @settings(max_examples=15, deadline=None)
    @given(random_trace())
    def test_optimal_never_worse_than_random(self, trace):
        problem = CrossbarDesignProblem.from_trace(
            trace, window_size=max(1, trace.total_cycles // 3)
        )
        config = SynthesisConfig(max_targets_per_bus=None)
        conflicts = build_conflicts(problem, config)
        num_buses = min(2, problem.num_targets)
        try:
            optimal = optimize_binding(problem, conflicts, num_buses, config)
        except SynthesisError:
            return  # infeasible instance: nothing to compare
        for seed in range(3):
            random_bind = random_feasible_binding(
                problem, conflicts, num_buses, config, seed=seed
            )
            assert optimal.max_bus_overlap <= random_bind.max_bus_overlap


class TestRandomBinding:
    def test_random_binding_feasible_and_not_optimal_flagged(
        self, two_phase_problem, default_config
    ):
        conflicts = build_conflicts(two_phase_problem, default_config)
        binding = random_feasible_binding(
            two_phase_problem, conflicts, 2, default_config, seed=1
        )
        assert not binding.optimal
        assert not audit_binding(
            two_phase_problem, conflicts, binding.binding,
            default_config.max_targets_per_bus,
        )

    def test_infeasible_raises(self, two_phase_problem, default_config):
        conflicts = build_conflicts(two_phase_problem, default_config)
        with pytest.raises(SynthesisError):
            random_feasible_binding(
                two_phase_problem, conflicts, 1, default_config
            )


class TestObjectiveEvaluator:
    def test_counts_unordered_pairs_once(self):
        problem = problem_from_activity(
            [[(0, 30)], [(0, 30)], [(0, 30)]],
            total_cycles=100,
            window_size=100,
        )
        om = problem.overlap_matrix
        assert om[0, 1] == 30
        # all three on one bus: 3 pairs of 30 each
        assert binding_overlap_objective(problem, (0, 0, 0)) == 90
        # split 2+1: one pair remains
        assert binding_overlap_objective(problem, (0, 0, 1)) == 30


class TestAudit:
    def test_detects_bandwidth_violation(self, two_phase_problem, default_config):
        conflicts = build_conflicts(two_phase_problem, default_config)
        violations = audit_binding(
            two_phase_problem, conflicts, (0, 0, 1, 1), None
        )
        assert any("window" in violation for violation in violations)

    def test_detects_conflict_violation(self):
        problem = problem_from_activity(
            [[(0, 40)], [(0, 40)]], total_cycles=100, window_size=100
        )
        config = SynthesisConfig(overlap_threshold=0.3)
        conflicts = build_conflicts(problem, config)
        violations = audit_binding(problem, conflicts, (0, 0), None)
        assert any("conflict" in violation for violation in violations)

    def test_detects_maxtb_violation(self):
        problem = problem_from_activity(
            [[(0, 5)], [(10, 5)], [(20, 5)]],
            total_cycles=100,
            window_size=100,
        )
        config = SynthesisConfig()
        conflicts = build_conflicts(problem, config)
        violations = audit_binding(problem, conflicts, (0, 0, 0), 2)
        assert any("maxtb" in violation for violation in violations)

    def test_detects_sparse_numbering(self, two_phase_problem, default_config):
        conflicts = build_conflicts(two_phase_problem, default_config)
        violations = audit_binding(
            two_phase_problem, conflicts, (0, 2, 0, 2), None
        )
        assert any("dense" in violation for violation in violations)

    def test_detects_length_mismatch(self, two_phase_problem, default_config):
        conflicts = build_conflicts(two_phase_problem, default_config)
        violations = audit_binding(two_phase_problem, conflicts, (0, 1), None)
        assert violations

    def test_raise_on_violation(self, two_phase_problem, default_config):
        conflicts = build_conflicts(two_phase_problem, default_config)
        with pytest.raises(ValidationError):
            audit_binding(
                two_phase_problem, conflicts, (0, 0, 1, 1), None,
                raise_on_violation=True,
            )

    def test_clean_binding_passes(self, two_phase_problem, default_config):
        conflicts = build_conflicts(two_phase_problem, default_config)
        assert audit_binding(
            two_phase_problem, conflicts, (0, 1, 0, 1), None
        ) == []
