"""Multi-scenario merge policies and robust synthesis."""

import numpy as np
import pytest

from repro.core import (
    MERGE_POLICIES,
    RobustSynthesizer,
    SynthesisConfig,
    build_conflicts,
    merge_conflict_analyses,
    merge_criticality,
    merge_problems,
)
from repro.core.preprocess import ConflictAnalysis
from repro.errors import ConfigurationError
from repro.pipeline import PipelineRunner
from repro.traffic.criticality import CriticalityReport
from repro.traffic.synthetic import SyntheticTrafficConfig, generate_synthetic_trace

from tests.core.conftest import problem_from_activity


def small_problem(spans, total_cycles=400, window=100):
    return problem_from_activity(spans, total_cycles, window)


def conflict_analysis(num_targets, pairs, rule="threshold"):
    matrix = np.zeros((num_targets, num_targets), dtype=bool)
    reasons = {}
    for i, j in pairs:
        matrix[i, j] = matrix[j, i] = True
        reasons[(min(i, j), max(i, j))] = frozenset({rule})
    return ConflictAnalysis(matrix=matrix, reasons=reasons)


class TestMergeProblems:
    def test_union_concatenates_windows(self):
        a = small_problem([[(0, 50)], [(100, 50)]])
        b = small_problem([[(0, 80)], [(200, 30)]], total_cycles=800, window=200)
        merged = merge_problems([a, b], policy="union")
        assert merged.num_windows == a.num_windows + b.num_windows
        assert merged.num_targets == a.num_targets
        np.testing.assert_array_equal(
            merged.comm, np.concatenate([a.comm, b.comm], axis=1)
        )
        np.testing.assert_array_equal(
            merged.capacities, np.concatenate([a.capacities, b.capacities])
        )

    def test_worst_case_takes_elementwise_envelope(self):
        a = small_problem([[(0, 50)], [(100, 80)]])
        b = small_problem([[(0, 70)], [(100, 20)]])
        merged = merge_problems([a, b], policy="worst-case")
        assert merged.num_windows == a.num_windows
        np.testing.assert_array_equal(merged.comm, np.maximum(a.comm, b.comm))

    def test_criticality_reports_are_unioned(self):
        merged = merge_criticality(
            [
                CriticalityReport(critical_targets=(0,), conflicting_pairs=((0, 1),)),
                CriticalityReport(critical_targets=(2,), conflicting_pairs=((1, 2),)),
            ]
        )
        assert merged.critical_targets == (0, 2)
        assert merged.conflicting_pairs == ((0, 1), (1, 2))

    def test_mismatched_target_counts_rejected(self):
        a = small_problem([[(0, 50)], [(100, 50)]])
        b = small_problem([[(0, 50)], [(100, 50)], [(200, 50)]])
        with pytest.raises(ConfigurationError):
            merge_problems([a, b])

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_problems([])


class TestMergeConflicts:
    def test_union_keeps_every_pair(self):
        merged = merge_conflict_analyses(
            [
                conflict_analysis(4, [(0, 1)]),
                conflict_analysis(4, [(2, 3)], rule="bandwidth"),
            ],
            policy="union",
        )
        assert set(merged.reasons) == {(0, 1), (2, 3)}
        assert merged.reasons[(0, 1)] == frozenset({"threshold"})
        assert merged.reasons[(2, 3)] == frozenset({"bandwidth"})

    def test_union_merges_rules_for_shared_pairs(self):
        merged = merge_conflict_analyses(
            [
                conflict_analysis(4, [(0, 1)], rule="threshold"),
                conflict_analysis(4, [(0, 1)], rule="real-time"),
            ]
        )
        assert merged.reasons[(0, 1)] == frozenset({"threshold", "real-time"})

    def test_weighted_drops_rare_pairs(self):
        merged = merge_conflict_analyses(
            [
                conflict_analysis(4, [(0, 1)]),
                conflict_analysis(4, [(0, 1)]),
                conflict_analysis(4, [(2, 3)]),
            ],
            policy="weighted",
            weights=[1.0, 1.0, 1.0],
            min_weight=0.5,
        )
        assert set(merged.reasons) == {(0, 1)}

    def test_weighted_respects_scenario_weights(self):
        merged = merge_conflict_analyses(
            [
                conflict_analysis(4, [(0, 1)]),
                conflict_analysis(4, [(2, 3)]),
            ],
            policy="weighted",
            weights=[9.0, 1.0],
            min_weight=0.5,
        )
        assert set(merged.reasons) == {(0, 1)}

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_conflict_analyses(
                [conflict_analysis(4, [(0, 1)])],
                policy="weighted",
                weights=[1.0, 2.0],
            )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_conflict_analyses(
                [conflict_analysis(4, [(0, 1)])], policy="psychic"
            )


class TestRobustSynthesizer:
    @pytest.fixture(scope="class")
    def traces(self):
        configs = [
            SyntheticTrafficConfig(
                num_initiators=4, num_targets=4, total_cycles=8_000,
                burst_cycles=300, gap_cycles=900, seed=seed,
            )
            for seed in (1, 2, 3)
        ]
        return [generate_synthetic_trace(config) for config in configs]

    def test_union_binding_feasible_for_every_scenario(self, traces):
        config = SynthesisConfig(max_targets_per_bus=None)
        report = RobustSynthesizer(config, policy="union").design(
            traces, [600] * len(traces)
        )
        assert report.total_violations == 0
        for check in report.it_report.scenario_checks:
            assert check.clean

    def test_union_buses_dominate_individual_designs(self, traces):
        config = SynthesisConfig(max_targets_per_bus=None)
        robust = RobustSynthesizer(config, policy="union").design(
            traces, [600] * len(traces)
        )
        from repro.core import CrossbarSynthesizer

        for trace in traces:
            individual = CrossbarSynthesizer(config).design_from_trace(trace, 600)
            assert (
                robust.design.it.num_buses
                >= individual.design.it.num_buses
            )

    def test_window_sizes_can_differ_per_scenario(self, traces):
        config = SynthesisConfig(max_targets_per_bus=None)
        report = RobustSynthesizer(config).design(traces, [400, 600, 800])
        assert report.total_violations == 0

    def test_scenario_names_flow_into_checks(self, traces):
        report = RobustSynthesizer().design(
            traces, [600] * len(traces), names=["a", "b", "c"]
        )
        assert [c.name for c in report.it_report.scenario_checks] == ["a", "b", "c"]

    def test_mismatched_lengths_rejected(self, traces):
        with pytest.raises(ConfigurationError):
            RobustSynthesizer().design(traces, [600])


class TestRobustPathsAgree:
    """The one-shot robust flow and the incremental one over pipeline
    artifacts run the same phase-4 solve, so they design the same
    crossbar and report the same per-scenario verdicts."""

    @pytest.fixture(scope="class")
    def traces(self):
        return [
            generate_synthetic_trace(
                SyntheticTrafficConfig(
                    num_initiators=4, num_targets=5, total_cycles=6_000,
                    burst_cycles=250, gap_cycles=700, seed=seed,
                )
            )
            for seed in (11, 12)
        ]

    @staticmethod
    def side_view(report):
        return (
            report.search,
            report.binding,
            report.scenario_checks,
            report.conflicts.reasons,
        )

    @pytest.mark.parametrize("policy", MERGE_POLICIES)
    def test_design_equals_design_from_artifacts(self, traces, policy):
        config = SynthesisConfig(max_targets_per_bus=3)
        windows, names, weights = [500, 800], ["a", "b"], [3.0, 1.0]
        synthesizer = RobustSynthesizer(config, policy=policy, min_weight=0.6)
        direct = synthesizer.design(traces, windows, names, weights)

        runner = PipelineRunner()
        sides = {False: [], True: []}
        for trace, window in zip(traces, windows):
            collected = runner.collect(trace)
            for mirrored, side in sides.items():
                windowed = runner.window(collected, config, window, mirrored)
                side.append((windowed, runner.conflicts(windowed, config)))
        staged = synthesizer.design_from_artifacts(
            runner, sides[False], sides[True], names, weights
        )
        assert staged.design == direct.design
        for ours, theirs in (
            (staged.it_report, direct.it_report),
            (staged.ti_report, direct.ti_report),
        ):
            assert self.side_view(ours) == self.side_view(theirs)
            assert ours.stage_fingerprint and not theirs.stage_fingerprint


class TestUnionConflictsMatchConcatenatedProblem:
    def test_union_equals_conflicts_of_concatenated_problem(self):
        """The union of per-scenario conflict matrices must agree with
        building conflicts directly on the window-concatenated problem
        (both rules quantify over 'any window')."""
        config = SynthesisConfig(max_targets_per_bus=None, use_criticality=False)
        problems = [
            small_problem([[(0, 90)], [(10, 85)], [(200, 20)]]),
            small_problem([[(300, 15)], [(100, 90)], [(110, 88)]]),
        ]
        per_scenario = [build_conflicts(p, config) for p in problems]
        union = merge_conflict_analyses(per_scenario, policy="union")
        concatenated = build_conflicts(merge_problems(problems), config)
        np.testing.assert_array_equal(union.matrix, concatenated.matrix)
