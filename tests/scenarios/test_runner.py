"""Suite-runner semantics: robust design, replay validation, caching."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.exec import ExecutionEngine, ResultCache
from repro.scenarios import (
    Scenario,
    ScenarioSuite,
    ScenarioSuiteRunner,
    build_suite,
)

SMALL = {"num_initiators": 4, "num_targets": 4, "total_cycles": 8_000}


@pytest.fixture(scope="module")
def smoke_report():
    return ScenarioSuiteRunner().run(build_suite("smoke"))


class TestRobustRun:
    def test_union_replay_has_zero_violations(self, smoke_report):
        """Acceptance: the union-merged problem enforces every
        scenario's windows, so the shared design replays cleanly."""
        assert smoke_report.total_violations == 0
        assert smoke_report.robust.total_violations == 0

    def test_robust_buses_dominate_every_scenario_optimum(self, smoke_report):
        for outcome in smoke_report.outcomes:
            assert smoke_report.robust_buses >= outcome.individual_buses

    def test_one_outcome_per_scenario(self, smoke_report):
        assert len(smoke_report.outcomes) == len(build_suite("smoke"))
        names = [outcome.scenario.name for outcome in smoke_report.outcomes]
        assert names == [s.name for s in build_suite("smoke")]

    def test_pareto_includes_robust_and_all_individuals(self, smoke_report):
        labels = {point.label for point in smoke_report.pareto}
        assert "robust-union" in labels
        assert len(smoke_report.pareto) == len(smoke_report.outcomes) + 1

    def test_robust_design_is_on_the_pareto_front_or_dominated_cleanly(
        self, smoke_report
    ):
        robust = next(
            point for point in smoke_report.pareto
            if point.label == "robust-union"
        )
        assert robust.violations == 0

    def test_summary_renders_all_scenarios(self, smoke_report):
        text = smoke_report.summary()
        for outcome in smoke_report.outcomes:
            assert outcome.scenario.name in text
        assert "robust crossbar" in text

    def test_report_json_round_trips(self, smoke_report, tmp_path):
        payload = smoke_report.to_dict()
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["format"] == "repro-scenario-report-v1"
        assert loaded["robust"]["bus_count"] == smoke_report.robust_buses
        assert len(loaded["scenarios"]) == len(smoke_report.outcomes)
        assert loaded["robust"]["total_violations"] == 0


class TestEngineIntegration:
    def test_warm_rerun_is_served_from_cache(self, tmp_path):
        suite = build_suite("smoke")
        cache_dir = tmp_path / "cache"
        cold = ScenarioSuiteRunner(
            engine=ExecutionEngine(cache=ResultCache(cache_dir))
        ).run(suite)
        warm_engine = ExecutionEngine(cache=ResultCache(cache_dir))
        warm = ScenarioSuiteRunner(engine=warm_engine).run(suite)
        assert warm.to_dict() == cold.to_dict()
        assert warm_engine.cache.stats.hits == len(suite)
        assert warm_engine.cache.stats.misses == 0


class TestPolicies:
    def test_weighted_policy_never_needs_more_buses_than_union(self):
        suite = build_suite("smoke")
        union = ScenarioSuiteRunner(policy="union").run(suite)
        weighted = ScenarioSuiteRunner(policy="weighted", min_weight=0.6).run(
            suite
        )
        assert weighted.robust_buses <= union.robust_buses

    def test_weighted_capacity_violations_stay_zero(self):
        """Relaxing conflicts can break separations, never capacity."""
        report = ScenarioSuiteRunner(policy="weighted", min_weight=0.9).run(
            build_suite("smoke")
        )
        for outcome in report.outcomes:
            assert outcome.it_check.capacity_violations == ()
            assert outcome.ti_check.capacity_violations == ()

    def test_worst_case_policy_runs_clean(self):
        report = ScenarioSuiteRunner(policy="worst-case").run(
            build_suite("smoke")
        )
        assert report.robust.total_violations == 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSuiteRunner(policy="psychic").run(build_suite("smoke"))


class TestPlatformMismatch:
    def test_mismatched_platforms_rejected(self):
        suite = ScenarioSuite(
            name="bad",
            scenarios=(
                Scenario(
                    name="small",
                    source="profile:poisson",
                    params={**SMALL, "seed": 1},
                ),
                Scenario(
                    name="large",
                    source="profile:poisson",
                    params={**SMALL, "num_targets": 6, "seed": 2},
                ),
            ),
        )
        with pytest.raises(ConfigurationError, match="platform shape"):
            ScenarioSuiteRunner().run(suite)


class TestLatencyReplay:
    """The optional validation stage: platform-simulator latency replay."""

    def test_app_scenarios_report_latency(self):
        suite = ScenarioSuite(
            name="replay",
            scenarios=(
                Scenario(name="full", source="app:qsort"),
                Scenario(name="light", source="app:qsort", load_scale=0.6),
            ),
        )
        report = ScenarioSuiteRunner(replay_latency=True).run(suite)
        full, light = report.outcomes
        assert full.latency is not None
        assert full.latency.count > 0
        assert full.latency.mean > 0
        # Thinned app traces replay through the trace-driven driver: the
        # recorded (already thinned) packets re-issue at their recorded
        # cycles, so the scaled scenario reports its own latency.
        assert light.latency is not None
        assert 0 < light.latency.count < full.latency.count
        assert "avg lat (cy)" in report.summary()
        entries = report.to_dict()["scenarios"]
        assert entries[0]["latency"]["mean"] > 0
        assert entries[1]["latency"]["mean"] > 0
        assert "latency_skipped" not in entries[0]
        assert "latency_skipped" not in entries[1]

    def test_profile_scenarios_report_latency_under_replay(self):
        """Profile-backed scenarios replay their recorded traces."""
        report = ScenarioSuiteRunner(replay_latency=True).run(
            build_suite("smoke")
        )
        for outcome in report.outcomes:
            assert outcome.latency is not None
            assert outcome.latency.count == outcome.num_records
            assert outcome.latency.mean > 0
            assert outcome.latency_skipped is None
        assert "avg lat (cy)" in report.summary()

    def test_loadramp_scaled_scenarios_report_latency(self):
        """Load-scaled profile scenarios are covered by trace replay."""
        report = ScenarioSuiteRunner(replay_latency=True).run(
            build_suite("loadramp")
        )
        counts = [outcome.latency.count for outcome in report.outcomes]
        assert all(count > 0 for count in counts)
        # higher offered load replays more packets
        assert counts == sorted(counts)

    def test_empty_trace_scenario_is_marked_skipped(self):
        suite = ScenarioSuite(
            name="sparse",
            scenarios=(
                Scenario(
                    name="busy",
                    source="profile:poisson",
                    params={**SMALL, "rate": 0.01, "seed": 5},
                ),
                Scenario(
                    name="silent",
                    source="profile:poisson",
                    # rate low enough that no packet is ever emitted
                    params={**SMALL, "rate": 1e-9, "seed": 6},
                ),
            ),
        )
        report = ScenarioSuiteRunner(replay_latency=True).run(suite)
        busy, silent = report.outcomes
        assert busy.latency is not None
        assert silent.latency is None
        assert silent.latency_skipped == "empty trace"
        assert "skipped (empty trace)" in report.summary()
        entries = report.to_dict()["scenarios"]
        assert entries[1]["latency_skipped"] == "empty trace"
        assert "latency" not in entries[1]

    def test_latency_absent_by_default(self, smoke_report):
        """Reports must stay byte-compatible when replay is off."""
        assert all(outcome.latency is None for outcome in smoke_report.outcomes)
        for entry in smoke_report.to_dict()["scenarios"]:
            assert "latency" not in entry
            assert "latency_skipped" not in entry
        assert "avg lat (cy)" not in smoke_report.summary()
