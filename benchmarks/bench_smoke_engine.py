"""Engine smoke bench -- a small sweep through the execution engine.

Unlike the paper benches this one exists for CI: it is sized to finish
in seconds, exercises the execution engine and the result cache end to
end, and leaves a machine-readable timing entry in
``results/timings.json`` for the perf-artifact archive. The timed
kernel is a cold (cache-empty) window sweep; the assertions then verify
that a warm rerun is served entirely from the cache and agrees with the
cold run.
"""

from repro.analysis import window_size_sweep
from repro.apps.synthetic import synthetic_trace
from repro.core import SynthesisConfig
from repro.exec import ExecutionEngine, ResultCache

from _bench_utils import emit

WINDOWS = [150, 400, 1_200, 6_000]


def test_engine_sweep_smoke(benchmark, results_dir, tmp_path):
    trace = synthetic_trace(
        burst_cycles=400, total_cycles=24_000, num_initiators=6,
        num_targets=6, seed=5,
    )
    config = SynthesisConfig(max_targets_per_bus=None)
    cache = ResultCache(tmp_path / "cache")
    cold_engine = ExecutionEngine(cache=cache)

    points = benchmark.pedantic(
        lambda: window_size_sweep(trace, WINDOWS, config, engine=cold_engine),
        rounds=1,
        iterations=1,
    )

    # fresh cache handle on the same directory: stats count only the warm run
    warm_engine = ExecutionEngine(cache=ResultCache(cache.cache_dir))
    warm_points = window_size_sweep(trace, WINDOWS, config, engine=warm_engine)
    assert warm_points == points
    assert warm_engine.cache.stats.hits == len(WINDOWS)
    assert warm_engine.cache.stats.misses == 0

    emit(
        results_dir,
        "engine_smoke",
        "engine smoke sweep (synthetic 12-core, burst ~400 cy)\n"
        + "\n".join(
            f"  window {int(point.value):>5} cy -> "
            f"{point.it_buses} IT + {point.ti_buses} TI buses"
            for point in points
        )
        + f"\n  cache: {cache.stats}",
    )
