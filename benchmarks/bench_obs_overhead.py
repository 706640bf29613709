"""Observability overhead bench -- tracing must be (nearly) free.

The observability layer promises zero-cost instrumentation when
disarmed and negligible cost when armed: ``span()`` returns a shared
null singleton after two module-global reads, and armed spans do a
handful of ``perf_counter`` calls plus one deque append. This bench
holds the layer to that promise on the hottest end-to-end path we
have: a fully warm window sweep (every point served from the result
cache), where per-solve work cannot hide instrumentation cost.

The same kernel is timed twice -- tracing disarmed, then armed under a
root span -- and the bench asserts the armed best-of-N stays within 5%
of the disarmed one. Best-of-N minimums (not means) are compared so a
single scheduler hiccup cannot fail the gate; a small absolute floor
absorbs timer granularity on sub-millisecond deltas. The armed timing
also lands in ``results/timings.json`` via ``benchmark.pedantic`` so
``check_regression.py`` gates it against the committed baseline.
"""

import time

from repro.analysis import window_size_sweep
from repro.apps.synthetic import synthetic_trace
from repro.core import SynthesisConfig
from repro.exec import ExecutionEngine, ResultCache
from repro.obs import tracing

from _bench_utils import emit

WINDOWS = [150, 400, 1_200, 6_000]

# Best-of-N rounds per arm. Minimums converge fast; more rounds only
# buys noise rejection, and the warm kernel is cheap enough that 15
# rounds still finish in a couple of seconds.
ROUNDS = 15

# Armed best-of-N must stay within 5% of disarmed (the ISSUE's bar),
# with an absolute floor so timer granularity on a sub-ms kernel cannot
# manufacture a relative failure.
MAX_OVERHEAD_RATIO = 1.05
ABSOLUTE_FLOOR_S = 0.002


def _best_of(kernel, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        begin = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - begin)
    return best


def test_obs_overhead_warm_sweep(benchmark, results_dir, tmp_path):
    trace = synthetic_trace(
        burst_cycles=400, total_cycles=24_000, num_initiators=6,
        num_targets=6, seed=5,
    )
    config = SynthesisConfig(max_targets_per_bus=None)
    cache = ResultCache(tmp_path / "cache")
    cold = window_size_sweep(
        trace, WINDOWS, config, engine=ExecutionEngine(cache=cache)
    )

    def warm_sweep():
        # Fresh engine + cache handle per call: stats never accumulate
        # across rounds and every round replays the identical hit path.
        # The explicit span is the instrumentation under test: a fully
        # warm sweep never reaches the engine's own spans (nothing is
        # pending), so disarmed rounds exercise the null-span fast path
        # and armed rounds the real record-and-emit path.
        with tracing.span("bench.warm_sweep", windows=len(WINDOWS)):
            engine = ExecutionEngine(cache=ResultCache(cache.cache_dir))
            points = window_size_sweep(trace, WINDOWS, config, engine=engine)
        assert points == cold
        return points

    assert not tracing.tracing_enabled()
    disarmed_best = _best_of(warm_sweep)

    tracing.arm_tracing()
    try:
        with tracing.root_span("bench.obs_overhead"):
            armed_best = _best_of(warm_sweep)
            benchmark.pedantic(warm_sweep, rounds=1, iterations=1)
        spans = tracing.collect_spans()
    finally:
        tracing.clear_spans()
        tracing.disarm_tracing()

    # The armed runs must actually have recorded something, or the
    # comparison proves nothing.
    names = {span.name for span in spans}
    assert "bench.obs_overhead" in names
    assert "bench.warm_sweep" in names

    budget = max(disarmed_best * MAX_OVERHEAD_RATIO,
                 disarmed_best + ABSOLUTE_FLOOR_S)
    assert armed_best <= budget, (
        f"tracing overhead out of budget: armed best {armed_best:.4f}s vs "
        f"disarmed best {disarmed_best:.4f}s "
        f"({armed_best / disarmed_best:.2%})"
    )

    overhead = (armed_best / disarmed_best - 1.0) * 100.0
    emit(
        results_dir,
        "obs_overhead",
        "observability overhead (warm sweep, best of "
        f"{ROUNDS})\n"
        f"  disarmed best : {disarmed_best * 1e3:8.2f} ms\n"
        f"  armed best    : {armed_best * 1e3:8.2f} ms\n"
        f"  overhead      : {overhead:+.1f}% (budget 5% or "
        f"{ABSOLUTE_FLOOR_S * 1e3:.0f} ms floor)\n"
        f"  spans recorded: {len(spans)}",
    )
