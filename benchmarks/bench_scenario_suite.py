"""Scenario-suite bench -- the smoke suite end to end.

Sized for CI: four small, structurally distinct workloads on a 6x6
platform, each synthesized individually through the execution engine
(cached) plus one robust union-policy design replayed against
every scenario. The timed kernel is a cold (cache-empty) run; the
assertions then verify the acceptance properties -- zero replay
violations under the union policy, a robust bus count dominating every
per-scenario optimum, and a warm rerun served from the cache.
"""

from repro.exec import ExecutionEngine, ResultCache
from repro.scenarios import ScenarioSuiteRunner, build_suite

from _bench_utils import emit


def test_scenario_suite_smoke(benchmark, results_dir, tmp_path):
    suite = build_suite("smoke")
    cache = ResultCache(tmp_path / "cache")
    cold_runner = ScenarioSuiteRunner(
        engine=ExecutionEngine(cache=cache), policy="union"
    )

    report = benchmark.pedantic(
        lambda: cold_runner.run(suite), rounds=1, iterations=1
    )

    assert report.total_violations == 0
    for outcome in report.outcomes:
        assert report.robust_buses >= outcome.individual_buses

    # fresh cache handle on the same directory: stats count only the warm run
    warm_runner = ScenarioSuiteRunner(
        engine=ExecutionEngine(cache=ResultCache(cache.cache_dir)),
        policy="union",
    )
    warm_report = warm_runner.run(suite)
    assert warm_report.robust_buses == report.robust_buses
    assert warm_runner.engine.cache.stats.hits == len(suite)
    assert warm_runner.engine.cache.stats.misses == 0

    emit(results_dir, "scenario_suite", report.summary())
