"""Warm-suite bench: the mixed suite re-run on a filled cache directory.

The paper's flow records each use-case's traffic once; every later step
only analyses that recording. ``test_warm_suite`` fills a cache
directory with a cold ``mixed`` run with latency replay, then times a
warm run of the same suite on a fresh
:class:`~repro.exec.ExecutionEngine` and a fresh
:class:`~repro.scenarios.ScenarioSuiteRunner` per round: what a new
``repro scenarios run mixed --replay-latency --cache-dir D`` process
does after its imports. Every scenario trace is a stored collect entry,
read by its digest and shape, and every later stage is stored too, so
the warm run must call no traffic generator and must reproduce the
cold report exactly. It reports the warm and cold seconds and the
warm run's ``collect`` disk hits.
"""

import json
import time

import repro.traffic.profiles as profiles
import repro.traffic.synthetic as synthetic
from repro.exec import ExecutionEngine
from repro.scenarios import ScenarioSuiteRunner, build_suite

from _bench_utils import emit

GENERATORS = (
    (synthetic, "generate_synthetic_trace"),
    (profiles, "generate_hotspot_trace"),
    (profiles, "generate_poisson_trace"),
    (profiles, "generate_pipeline_trace"),
)


def run_mixed(cache_dir):
    """A fresh engine and runner's ``mixed`` report with replay, and
    the runner's per-stage tallies."""
    runner = ScenarioSuiteRunner(
        engine=ExecutionEngine(cache=cache_dir), replay_latency=True
    )
    report = runner.run(build_suite("mixed"))
    return json.dumps(report.to_dict(), sort_keys=True), runner.last_run_breakdown


def test_warm_suite(benchmark, results_dir, tmp_path, monkeypatch):
    calls = []
    for module, name in GENERATORS:
        generate = getattr(module, name)

        def counting(*args, _generate=generate, **kwargs):
            calls.append(_generate)
            return _generate(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    cache_dir = tmp_path / "cache"
    begin = time.perf_counter()
    cold, _ = run_mixed(cache_dir)
    cold_seconds = time.perf_counter() - begin
    assert len(calls) == 5  # one generation per scenario
    del calls[:]

    warm_runs = []
    benchmark.pedantic(
        lambda: warm_runs.append(run_mixed(cache_dir)), rounds=5, iterations=1
    )
    assert calls == [], "a warm suite generated a trace"
    for warm, breakdown in warm_runs:
        assert warm == cold, "warm report differs from the cold one"
        assert breakdown["disk_hits"].get("collect") == 5
        assert "collect" not in breakdown["computed"]

    warm_seconds = benchmark.stats.stats.mean
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 4)
    emit(
        results_dir,
        "warm_suite",
        "\n".join(
            [
                "mixed suite with latency replay on a filled cache directory",
                f"  cold run : {cold_seconds * 1e3:7.1f} ms",
                f"  warm run : {warm_seconds * 1e3:7.1f} ms (mean of 5 rounds, "
                "fresh engine and runner each)",
                "  warm run : 0 traces generated, 5 collect disk hits",
            ]
        ),
    )
