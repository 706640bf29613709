"""Parameter sweeps for the design-space studies (paper Sec. 7.2/7.4).

Three drivers:

* :func:`window_size_sweep` -- crossbar size as the analysis window
  grows (Fig. 5(a)): near-full below the burst size, compact at a few
  burst lengths, average-like beyond.
* :func:`overlap_threshold_sweep` -- crossbar size as the conflict
  threshold relaxes from 0% to 50% (Fig. 6).
* :func:`acceptable_window_search` -- the largest window whose design
  still meets a latency bound, per burst size (Fig. 5(b)); grows
  roughly linearly with the burst size.

Every sweep point is an independent synthesis run, so all three drivers
are thin: they enumerate :class:`~repro.exec.engine.SynthesisTask`
points and hand them to the :class:`~repro.exec.engine.ExecutionEngine`,
which solves each through the staged pipeline (:mod:`repro.pipeline`).
:func:`acceptable_window_search` validates each design, and measures
its full-crossbar reference, as replay stages on the engine's runner.
Pass ``engine=ExecutionEngine(cache="...")`` to skip already-solved
points and already-simulated replays. Results are deterministic --
identical point lists whether a point was solved or read from the cache.

The pipeline is what makes sweeps cheap beyond caching: every point of
a sweep shares the trace's *collection* artifact, a threshold sweep's
points share the *windowing* artifacts outright (only conflicts and the
solve re-run per threshold, highest threshold first so each bind reuses
the last one's answer where that is exact), and the columnar kernel compilation
(:meth:`repro.traffic.kernels.TraceAnalytics.of`, memoized on the trace
and on its memoized mirror for the TI side) runs once per sweep, at the
first window stage, not once per point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.apps.descriptor import Application
from repro.core.baselines import full_crossbar_design
from repro.core.spec import SynthesisConfig
from repro.errors import ConfigurationError
from repro.exec.engine import ExecutionEngine, SynthesisTask
from repro.traffic.trace import TrafficTrace

__all__ = [
    "SweepPoint",
    "window_size_sweep",
    "overlap_threshold_sweep",
    "acceptable_window_search",
]


def _window_tasks(
    trace: TrafficTrace, windows: Sequence[int], base: SynthesisConfig
) -> List[SynthesisTask]:
    """One task per window, clamped to the trace length.

    Clamping happens *before* task construction so equal effective
    windows collapse to one pipeline point (and one cache entry).
    """
    tasks = []
    for window in windows:
        effective = min(window, trace.total_cycles)
        tasks.append(
            SynthesisTask(
                config=replace(base, window_size=effective),
                window_size=effective,
            )
        )
    return tasks


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample: the swept value and the resulting design size."""

    value: float
    it_buses: int
    ti_buses: int

    @property
    def total_buses(self) -> int:
        return self.it_buses + self.ti_buses


def _resolve_engine(engine: Optional[ExecutionEngine]) -> ExecutionEngine:
    return engine if engine is not None else ExecutionEngine()


def window_size_sweep(
    trace: TrafficTrace,
    window_sizes: Sequence[int],
    config: Optional[SynthesisConfig] = None,
    engine: Optional[ExecutionEngine] = None,
) -> List[SweepPoint]:
    """Design the crossbar for each window size (Fig. 5(a))."""
    tasks = _window_tasks(trace, window_sizes, config or SynthesisConfig())
    results = _resolve_engine(engine).run_sweep(trace, tasks)
    return [
        SweepPoint(
            value=float(window),
            it_buses=result.design.it.num_buses,
            ti_buses=result.design.ti.num_buses,
        )
        for window, result in zip(window_sizes, results)
    ]


def overlap_threshold_sweep(
    trace: TrafficTrace,
    thresholds: Sequence[float],
    window_size: int,
    config: Optional[SynthesisConfig] = None,
    engine: Optional[ExecutionEngine] = None,
) -> List[SweepPoint]:
    """Design the crossbar for each overlap threshold (Fig. 6)."""
    base = config or SynthesisConfig()
    tasks = [
        SynthesisTask(
            config=replace(
                base, window_size=window_size, overlap_threshold=threshold
            ),
            window_size=window_size,
        )
        for threshold in thresholds
    ]
    # Highest threshold first: a lower threshold only adds conflict
    # pairs, so each bind can reuse the previous point's answer exactly
    # (PipelineRunner.bind's reuse record). Points return in input order.
    order = sorted(range(len(tasks)), key=lambda index: -thresholds[index])
    solved = _resolve_engine(engine).run_sweep(
        trace, [tasks[index] for index in order]
    )
    results = [result for _, result in sorted(zip(order, solved))]
    return [
        SweepPoint(
            value=threshold,
            it_buses=result.design.it.num_buses,
            ti_buses=result.design.ti.num_buses,
        )
        for threshold, result in zip(thresholds, results)
    ]


def acceptable_window_search(
    application: Application,
    trace: TrafficTrace,
    candidate_windows: Sequence[int],
    max_latency_ratio: float = 1.5,
    max_peak_ratio: float = 3.0,
    config: Optional[SynthesisConfig] = None,
    engine: Optional[ExecutionEngine] = None,
) -> int:
    """Largest window whose designed crossbar meets the latency bounds.

    For each candidate window (ascending), the crossbar is designed and
    the application re-simulated on it; the acceptable window is the
    largest one whose *average* packet latency stays within
    ``max_latency_ratio`` and whose *maximum* packet latency within
    ``max_peak_ratio`` of the full crossbar's (Fig. 5(b) calls these
    "acceptable window sizes" -- the paper stresses that over-large
    windows hurt the worst case first). Candidates beyond the first
    failing window are skipped, since larger windows only shrink the
    design.

    Candidates are solved one at a time, so the search stops at the
    first failing window without solving the rest.
    """
    if not candidate_windows:
        raise ConfigurationError("need at least one candidate window")
    base = config or SynthesisConfig()
    run = _resolve_engine(engine)
    driver = application.driver()
    full_stats = run.pipeline.replay(
        driver, full_crossbar_design(trace), application.sim_cycles
    ).stats
    full_mean = full_stats.mean or 1.0
    full_peak = full_stats.maximum or 1
    budget = application.sim_cycles * 6

    ordered = sorted(candidate_windows)
    tasks = _window_tasks(trace, ordered, base)

    best = 0
    for window, task in zip(ordered, tasks):
        result = run.run_sweep(trace, [task])[0]
        stats = run.pipeline.replay(driver, result.design, budget).stats
        mean_ok = stats.mean / full_mean <= max_latency_ratio
        peak_ok = stats.maximum / full_peak <= max_peak_ratio
        if mean_ok and peak_ok:
            best = window
        else:
            break
    return best
