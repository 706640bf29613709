"""Replay determinism: same trace + same design => byte-identical
latency reports across cold and warm-cache runs."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import ExecutionEngine, ResultCache
from repro.platform import SIMULATION_COUNTER
from repro.scenarios import (
    Scenario,
    ScenarioSuite,
    ScenarioSuiteRunner,
    build_suite,
)

SHAPE = {"num_initiators": 4, "num_targets": 4, "total_cycles": 8_000}

# qsort's platform: 6 ARMs x (6 PMs + shared + sem + irq); profile
# scenarios in the mixed suite must share it (one crossbar per suite).
APP_SHAPE = {"num_initiators": 6, "num_targets": 9, "total_cycles": 8_000}


def replay_suite() -> ScenarioSuite:
    """A small suite covering every replay path: profile, load-scaled
    profile, full-load app, thinned app."""
    return ScenarioSuite(
        name="replay-mix",
        scenarios=(
            Scenario(
                name="burst",
                source="profile:burst",
                params={**APP_SHAPE, "burst_cycles": 300, "gap_cycles": 900,
                        "seed": 3},
                window_size=600,
            ),
            Scenario(
                name="burst-light",
                source="profile:burst",
                params={**APP_SHAPE, "burst_cycles": 300, "gap_cycles": 900,
                        "seed": 3},
                load_scale=0.5,
                window_size=600,
            ),
            Scenario(name="qsort-full", source="app:qsort"),
            Scenario(name="qsort-thin", source="app:qsort", load_scale=0.7),
        ),
    )


def report_bytes(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


class TestRunModeDeterminism:
    @pytest.fixture(scope="class")
    def serial_bytes(self):
        runner = ScenarioSuiteRunner(
            engine=ExecutionEngine(), replay_latency=True
        )
        return report_bytes(runner.run(replay_suite()))

    def test_every_scenario_reports_latency(self, serial_bytes):
        entries = json.loads(serial_bytes)["scenarios"]
        assert len(entries) == 4
        for entry in entries:
            assert entry["latency"]["count"] > 0

    def test_warm_rerun_matches_and_simulates_nothing(self, serial_bytes):
        runner = ScenarioSuiteRunner(replay_latency=True)
        first = report_bytes(runner.run(replay_suite()))
        assert first == serial_bytes
        SIMULATION_COUNTER.reset()
        second = report_bytes(runner.run(replay_suite()))
        assert second == serial_bytes
        assert SIMULATION_COUNTER.runs == 0  # replays came from the store
        breakdown = runner.last_run_breakdown
        assert breakdown["memo_hits"].get("replay") == 4
        assert "replay" not in breakdown["computed"]

    def test_disk_cache_run_matches_serial(self, serial_bytes, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = ScenarioSuiteRunner(
            engine=ExecutionEngine(cache=ResultCache(cache_dir)),
            replay_latency=True,
        )
        assert report_bytes(cold.run(replay_suite())) == serial_bytes

        # A *fresh* runner (fresh in-memory store) sharing the cache
        # directory: replays must come back from disk, byte-identical,
        # without a single fabric simulation.
        warm = ScenarioSuiteRunner(
            engine=ExecutionEngine(cache=ResultCache(cache_dir)),
            replay_latency=True,
        )
        SIMULATION_COUNTER.reset()
        assert report_bytes(warm.run(replay_suite())) == serial_bytes
        assert SIMULATION_COUNTER.runs == 0
        assert warm.last_run_breakdown["disk_hits"].get("replay") == 4

    def test_replay_builds_each_app_once(self, monkeypatch):
        """The replay stage simulates the driver it fingerprinted: one
        ``build_application`` per app-backed scenario, none rebuilt."""
        import repro.apps

        suite = build_suite("apps")
        built = []
        in_replay = []
        build_application = repro.apps.build_application

        def counting_build(name, **params):
            if in_replay:
                built.append(name)
            return build_application(name, **params)

        replay_latencies = ScenarioSuiteRunner._replay_latencies

        def replay_stage(runner, *args):
            in_replay.append(True)
            try:
                return replay_latencies(runner, *args)
            finally:
                in_replay.clear()

        monkeypatch.setattr(repro.apps, "build_application", counting_build)
        monkeypatch.setattr(
            ScenarioSuiteRunner, "_replay_latencies", replay_stage
        )
        report = ScenarioSuiteRunner(replay_latency=True).run(suite)
        assert all(outcome.latency for outcome in report.outcomes)
        assert built == [
            scenario.source_name
            for scenario in suite.scenarios
            if scenario.source_kind == "app"
        ]


class TestSeededReplayDeterminism:
    """Scaled/thinned workloads replay identically given equal seeds."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        load_scale=st.sampled_from([0.3, 0.6, 1.0, 1.5]),
    )
    def test_scaled_profile_replay_is_reproducible(self, seed, load_scale):
        suite = ScenarioSuite(
            name="seeded",
            scenarios=(
                Scenario(
                    name="poisson",
                    source="profile:poisson",
                    params={**SHAPE, "rate": 0.004, "seed": seed},
                    load_scale=load_scale,
                    window_size=800,
                ),
            ),
        )
        first = ScenarioSuiteRunner(replay_latency=True).run(suite)
        second = ScenarioSuiteRunner(replay_latency=True).run(suite)
        assert report_bytes(first) == report_bytes(second)
        outcome = first.outcomes[0]
        assert (outcome.latency is not None) or (
            outcome.latency_skipped == "empty trace"
        )

    @settings(max_examples=6, deadline=None)
    @given(load_scale=st.sampled_from([0.2, 0.5, 0.8]))
    def test_thinned_app_replay_is_reproducible(self, load_scale):
        suite = ScenarioSuite(
            name="thinned",
            scenarios=(
                Scenario(
                    name="qsort-thin",
                    source="app:qsort",
                    load_scale=load_scale,
                ),
            ),
        )
        first = ScenarioSuiteRunner(replay_latency=True).run(suite)
        second = ScenarioSuiteRunner(replay_latency=True).run(suite)
        assert report_bytes(first) == report_bytes(second)
        assert first.outcomes[0].latency is not None
        assert first.outcomes[0].latency.count > 0
