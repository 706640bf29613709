"""Fig. 5(a) -- initiator->target crossbar size vs window size.

The paper sweeps the analysis window on a 20-core synthetic benchmark
with ~1000-cycle bursts: windows much smaller than the burst give a
near-full crossbar; windows of 1-4 burst lengths compact sharply; very
large windows degenerate toward the average-traffic design.

The timed kernel is the full sweep (assignment backend, for baseline
comparability); an untimed split then re-solves a window subset through
the literal MILP (``--backend milp``, HiGHS) and charts seconds per
window size.
"""

import time

from repro.analysis import bar_chart, format_table, window_size_sweep, xy_plot
from repro.apps.synthetic import synthetic_trace
from repro.core import SynthesisConfig

from _bench_utils import emit, engine_from_env, note_kernel_speedup

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

    # The same sweep points through the literal MILP. The assignment
    # sweep above already warmed the shared window store, so the split
    # isolates *solver* cost per window size. Both backends are exact --
    # bus counts must match point for point.
    milp_config = SynthesisConfig(max_targets_per_bus=None, backend="milp")
    milp_split = {}
    for window in MILP_WINDOWS:
        begin = time.perf_counter()
        (point,) = window_size_sweep(trace, [window], milp_config, engine=engine)
        milp_split[window] = round(time.perf_counter() - begin, 4)
        assert point.it_buses == sizes[window], (
            f"milp disagrees with assignment at window {window}"
        )
    benchmark.extra_info["milp_split_s"] = milp_split

    milp_table = format_table(
        ["window (cy)", "milp (s)"],
        [[window, milp_split[window]] for window in MILP_WINDOWS],
        title=(
            "Fig. 5(a) sweep on the literal MILP "
            "(seconds per design point, windows pre-warmed)"
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
