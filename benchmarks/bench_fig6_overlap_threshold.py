"""Fig. 6 -- crossbar size vs overlap threshold.

Sweeping the pre-processing threshold from 0% to 50% of the window on
the synthetic benchmark: at 0% any overlapping pair is separated
(contention-free over-design, near-full crossbar); relaxing the
threshold lets the bandwidth constraints take over and the crossbar
shrinks. The plot ends at 50% because beyond it the window bandwidth
constraint is violated anyway (Sec. 7.4).

The timed kernel is the full threshold sweep (assignment backend, for
baseline comparability); an untimed split then re-solves a threshold
subset through the literal MILP (``--backend milp``, HiGHS) and charts
seconds per threshold.
"""

import time

from repro.analysis import bar_chart, format_table, overlap_threshold_sweep
from repro.apps.synthetic import synthetic_trace
from repro.core import SynthesisConfig

from _bench_utils import emit, engine_from_env, note_kernel_speedup

THRESHOLDS = [0.0, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50]
WINDOW = 2_000  # twice the typical burst

MILP_THRESHOLDS = [0.0, 0.20, 0.50]


def test_fig6_overlap_threshold_sweep(benchmark, results_dir):
    trace = synthetic_trace(burst_cycles=1_000, total_cycles=120_000, seed=3)
    config = SynthesisConfig(max_targets_per_bus=None)
    engine = engine_from_env()

    points = benchmark.pedantic(
        lambda: overlap_threshold_sweep(trace, THRESHOLDS, WINDOW, config, engine=engine),
        rounds=1,
        iterations=1,
    )
    note_kernel_speedup(benchmark)

    table = format_table(
        ["threshold", "IT buses"],
        [[f"{point.value:.0%}", point.it_buses] for point in points],
        title=(
            "Fig. 6: IT crossbar size vs overlap threshold "
            f"(synthetic benchmark, window {WINDOW} cy)"
        ),
    )
    chart = bar_chart(
        [f"{point.value:.0%}" for point in points],
        [point.it_buses for point in points],
        title="IT crossbar size vs overlap threshold",
        unit=" buses",
    )
    emit(results_dir, "fig6", table + "\n\n" + chart)

    # The same design points through the literal MILP. The sweep above
    # warmed the shared window store (threshold lives in the conflict
    # stage, so every threshold shares one window fingerprint) -- the
    # split isolates solver cost.
    reference = {point.value: point.it_buses for point in points}
    milp_config = SynthesisConfig(max_targets_per_bus=None, backend="milp")
    milp_split = {}
    for threshold in MILP_THRESHOLDS:
        begin = time.perf_counter()
        (point,) = overlap_threshold_sweep(
            trace, [threshold], WINDOW, milp_config, engine=engine
        )
        milp_split[threshold] = round(time.perf_counter() - begin, 4)
        assert point.it_buses == reference[threshold], (
            f"milp disagrees with assignment at {threshold:.0%}"
        )
    benchmark.extra_info["milp_split_s"] = milp_split

    milp_table = format_table(
        ["threshold", "milp (s)"],
        [
            [f"{threshold:.0%}", milp_split[threshold]]
            for threshold in MILP_THRESHOLDS
        ],
        title=(
            "Fig. 6 sweep on the literal MILP "
            "(seconds per design point, windows pre-warmed)"
        ),
    )
    milp_chart = bar_chart(
        [f"{threshold:.0%}" for threshold in MILP_THRESHOLDS],
        [milp_split[threshold] * 1e3 for threshold in MILP_THRESHOLDS],
        title="milp ms per threshold",
        unit=" ms",
    )
    emit(results_dir, "fig6_milp", milp_table + "\n\n" + milp_chart)

    sizes = [point.it_buses for point in points]
    # monotone non-increasing in the threshold
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    # strict 0% threshold over-designs vs the 50% end
    assert sizes[0] > sizes[-1]
    # 0% is near the full crossbar for this heavily synchronized traffic
    assert sizes[0] >= 0.8 * trace.num_targets
