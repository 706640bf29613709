#!/usr/bin/env python
"""Design-space exploration on the 20-core synthetic benchmark.

Reproduces the paper's Sec. 7.2/7.4 methodology interactively: sweep the
analysis window size and the overlap threshold and watch the crossbar
size move between the full-crossbar and average-traffic extremes. The
window-size spectrum *is* the design spectrum: tiny windows behave like
peak-bandwidth design, whole-run windows like average-traffic design.

Both sweeps route through the execution engine: run with
``--cache-dir .cache`` to make re-runs (near-)instant -- already-solved points are fetched from
the content-addressed result cache instead of being re-solved.
"""

import argparse

from repro import ExecutionEngine, SynthesisConfig
from repro.analysis import (
    bar_chart,
    format_table,
    overlap_threshold_sweep,
    window_size_sweep,
)
from repro.apps.synthetic import synthetic_trace

BURST_CYCLES = 1_000


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", default=None,
                        help="content-addressed result cache directory")
    args = parser.parse_args()
    engine = ExecutionEngine(cache=args.cache_dir)

    trace = synthetic_trace(
        burst_cycles=BURST_CYCLES, total_cycles=80_000, seed=3
    )
    print(
        f"synthetic benchmark: {trace.num_initiators}+{trace.num_targets} "
        f"cores, bursts ~{BURST_CYCLES} cycles, {len(trace)} packets"
    )
    config = SynthesisConfig(max_targets_per_bus=None)

    windows = [200, 400, 1_000, 2_000, 4_000, 20_000, trace.total_cycles]
    points = window_size_sweep(trace, windows, config, engine=engine)
    print("\n-- window-size sweep (Fig. 5(a) flavour) --")
    print(
        format_table(
            ["window (cy)", "IT buses", "TI buses", "total"],
            [
                [int(point.value), point.it_buses, point.ti_buses,
                 point.total_buses]
                for point in points
            ],
        )
    )
    print()
    print(
        bar_chart(
            [f"w={int(point.value)}" for point in points],
            [point.it_buses for point in points],
            title="IT crossbar size vs window size",
            unit=" buses",
        )
    )

    thresholds = [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5]
    threshold_points = overlap_threshold_sweep(
        trace, thresholds, window_size=2 * BURST_CYCLES, config=config,
        engine=engine,
    )
    print("\n-- overlap-threshold sweep (Fig. 6 flavour) --")
    print(
        format_table(
            ["threshold", "IT buses"],
            [
                [f"{point.value:.0%}", point.it_buses]
                for point in threshold_points
            ],
        )
    )
    print()
    print(
        bar_chart(
            [f"{point.value:.0%}" for point in threshold_points],
            [point.it_buses for point in threshold_points],
            title="IT crossbar size vs overlap threshold",
            unit=" buses",
        )
    )

    print(
        "\nreading: aggressive designs pick window ~ burst size and a "
        "~10% threshold;\nconservative designs tolerate window ~ 4x burst "
        "and a 30-40% threshold."
    )
    if engine.cache is not None:
        print(f"result cache: {engine.cache.stats}")


if __name__ == "__main__":
    main()
