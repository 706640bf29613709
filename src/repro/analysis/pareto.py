"""Design-space exploration: size-performance trade-off fronts.

Section 7.2 of the paper: "depending on the design objective, crossbar
size-performance trade-offs can be explored in our approach by tuning
the analysis parameters (such as the window size, overlap threshold,
etc.)". :func:`explore_design_space` sweeps a (window x threshold) grid,
validates every designed crossbar by a replay (one simulation per
distinct design), and
:func:`pareto_front` filters the non-dominated points -- the menu a
designer actually chooses from.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.apps.descriptor import Application
from repro.core.spec import SynthesisConfig
from repro.core.synthesis import CrossbarSynthesizer
from repro.errors import ConfigurationError
from repro.pipeline.runner import PipelineRunner
from repro.traffic.trace import TrafficTrace

__all__ = ["DesignPoint", "explore_design_space", "pareto_front"]


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated parameter combination.

    ``mean_latency`` / ``max_latency`` come from re-simulating the
    application on the designed crossbar; ``bus_count`` is the total
    over both crossbars.
    """

    window_size: int
    overlap_threshold: float
    bus_count: int
    mean_latency: float
    max_latency: int

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance on (bus_count, mean_latency)."""
        no_worse = (
            self.bus_count <= other.bus_count
            and self.mean_latency <= other.mean_latency
        )
        strictly_better = (
            self.bus_count < other.bus_count
            or self.mean_latency < other.mean_latency
        )
        return no_worse and strictly_better


def explore_design_space(
    application: Application,
    trace: TrafficTrace,
    window_sizes: Sequence[int],
    thresholds: Sequence[float],
    config: Optional[SynthesisConfig] = None,
    cycle_headroom: int = 4,
) -> List[DesignPoint]:
    """Design and validate every (window, threshold) combination."""
    if not window_sizes or not thresholds:
        raise ConfigurationError("need at least one window size and threshold")
    base = config or SynthesisConfig()
    budget = application.sim_cycles * cycle_headroom
    # One runner for the grid: every threshold reuses its window's
    # analysis artifacts, and equal designs share one replay.
    pipeline = PipelineRunner()
    driver = application.driver()
    points = []
    for window in window_sizes:
        effective = min(window, trace.total_cycles)
        for threshold in thresholds:
            synthesizer = CrossbarSynthesizer(
                replace(
                    base, window_size=effective, overlap_threshold=threshold
                ),
                pipeline=pipeline,
            )
            report = synthesizer.design_from_trace(trace, effective)
            stats = pipeline.replay(driver, report.design, budget).stats
            points.append(
                DesignPoint(
                    window_size=effective,
                    overlap_threshold=threshold,
                    bus_count=report.design.bus_count,
                    mean_latency=stats.mean,
                    max_latency=stats.maximum,
                )
            )
    return points


def pareto_front(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """Non-dominated points, sorted by bus count then latency."""
    front = [
        point
        for point in points
        if not any(other.dominates(point) for other in points)
    ]
    # deduplicate identical (size, latency) pairs from different params
    seen = set()
    unique = []
    for point in sorted(
        front, key=lambda p: (p.bus_count, p.mean_latency, p.window_size)
    ):
        key = (point.bus_count, round(point.mean_latency, 6))
        if key not in seen:
            seen.add(key)
            unique.append(point)
    return unique
