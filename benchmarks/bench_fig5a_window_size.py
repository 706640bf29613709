"""Fig. 5(a) -- initiator->target crossbar size vs window size.

The paper sweeps the analysis window on a 20-core synthetic benchmark
with ~1000-cycle bursts: windows much smaller than the burst give a
near-full crossbar; windows of 1-4 burst lengths compact sharply; very
large windows degenerate toward the average-traffic design.

The timed kernel is the full sweep (the assignment DFS); an untimed
split then checks a window subset's initiator->target problem against
the literal MILP oracle (HiGHS on Eqs. 3-11, ``tests/oracles/milp``)
and charts its seconds per window size.
"""

import time
from dataclasses import replace

from repro.analysis import bar_chart, format_table, window_size_sweep, xy_plot
from repro.apps.synthetic import synthetic_trace
from repro.core import CrossbarSynthesizer, SynthesisConfig

from _bench_utils import emit, engine_from_env, note_kernel_speedup
from tests.oracles.milp.reference import assert_matches_dfs

BURST = 1_000
WINDOWS = [200, 300, 400, 750, 1_000, 2_000, 3_000, 4_000, 50_000, 120_000]

MILP_WINDOWS = [200, 1_000, 4_000, 120_000]


def test_fig5a_window_size_sweep(benchmark, results_dir):
    trace = synthetic_trace(
        burst_cycles=BURST, total_cycles=120_000, seed=3
    )
    config = SynthesisConfig(max_targets_per_bus=None)
    engine = engine_from_env()

    points = benchmark.pedantic(
        lambda: window_size_sweep(trace, WINDOWS, config, engine=engine),
        rounds=1,
        iterations=1,
    )
    note_kernel_speedup(benchmark)

    table = format_table(
        ["window (cy)", "window/burst", "IT buses"],
        [
            [int(point.value), point.value / BURST, point.it_buses]
            for point in points
        ],
        title=(
            "Fig. 5(a): IT crossbar size vs window size "
            f"(synthetic 20-core benchmark, burst ~{BURST} cy)"
        ),
    )
    plot = xy_plot(
        [point.value / BURST for point in points],
        [point.it_buses for point in points],
        title="IT buses vs window/burst ratio",
        x_label="window/burst",
        y_label="buses",
    )
    emit(results_dir, "fig5a", table + "\n\n" + plot)

    sizes = {int(point.value): point.it_buses for point in points}

    # The same sweep points on the literal MILP: every probe's verdict,
    # the minimum bus count and the optimal overlap must match the DFS,
    # whose bindings must be points of the model. The split times only
    # the MILP solves.
    milp_split = {}
    for window in MILP_WINDOWS:
        synthesizer = CrossbarSynthesizer(replace(config, window_size=window))
        side = synthesizer.design_from_trace(trace, window).it_report
        assert side.search.num_buses == sizes[window]
        begin = time.perf_counter()
        assert_matches_dfs(
            side.problem, side.conflicts, None, side.search, side.binding
        )
        milp_split[window] = round(time.perf_counter() - begin, 4)
    benchmark.extra_info["milp_split_s"] = milp_split

    milp_table = format_table(
        ["window (cy)", "milp (s)"],
        [[window, milp_split[window]] for window in MILP_WINDOWS],
        title=(
            "Fig. 5(a) sweep on the literal MILP "
            "(seconds per IT problem checked against the DFS)"
        ),
    )
    milp_chart = bar_chart(
        [str(window) for window in MILP_WINDOWS],
        [milp_split[window] * 1e3 for window in MILP_WINDOWS],
        title="milp ms per window size",
        unit=" ms",
    )
    emit(results_dir, "fig5a_milp", milp_table + "\n\n" + milp_chart)

    full_size = trace.num_targets
    # below the burst size: close to a full crossbar
    assert sizes[200] >= 0.8 * full_size
    # a few burst lengths: sharply compacted
    assert sizes[4_000] <= 0.6 * sizes[200]
    # monotone non-increasing across the sweep
    ordered = [point.it_buses for point in points]
    assert all(a >= b for a, b in zip(ordered, ordered[1:]))
