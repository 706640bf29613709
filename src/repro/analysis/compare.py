"""Design-point comparison on a common application.

:func:`compare_designs` simulates an application on several crossbar
designs and tabulates packet latency and crossbar size -- the measurement
behind the paper's Table 1 (shared/full/partial) and Fig. 4
(average-traffic vs windowed designs, normalized to the full crossbar).

Each design's validation simulation is a replay stage
(:meth:`PipelineRunner.replay <repro.pipeline.runner.PipelineRunner.replay>`)
on the runner the caller passes as ``pipeline`` (a fresh one by
default): designs with equal bindings share one simulation, and on a
cache-backed runner a warm comparison simulates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.apps.descriptor import Application
from repro.core.spec import CrossbarDesign
from repro.obs import tracing as _tracing
from repro.pipeline.runner import PipelineRunner
from repro.platform.metrics import LatencyStats

__all__ = ["DesignEvaluation", "compare_designs"]


@dataclass(frozen=True)
class DesignEvaluation:
    """One design's measured behaviour on an application.

    ``size_ratio`` normalizes bus count to the *shared* configuration
    (2 buses), matching Table 1's size column; the relative latency
    properties normalize to whichever baseline the caller picks.
    """

    label: str
    bus_count: int
    stats: LatencyStats
    critical_stats: LatencyStats
    finished: bool

    @property
    def size_ratio_vs_shared(self) -> float:
        """Bus count relative to a shared-bus design (2 buses)."""
        return self.bus_count / 2.0

    def relative_latency(self, baseline: "DesignEvaluation") -> tuple:
        """(mean, max) latency relative to ``baseline``."""
        return self.stats.relative_to(baseline.stats)


def compare_designs(
    application: Application,
    designs: Sequence[CrossbarDesign],
    max_cycles: Optional[int] = None,
    cycle_headroom: int = 6,
    pipeline: Optional[PipelineRunner] = None,
) -> Dict[str, DesignEvaluation]:
    """Simulate ``application`` on every design; key results by label.

    ``cycle_headroom`` multiplies the application's nominal simulation
    length so that heavily contended designs (a shared bus, an
    average-traffic design) still run their workload to completion.
    """
    budget = max_cycles or application.sim_cycles * cycle_headroom
    runner = pipeline if pipeline is not None else PipelineRunner()
    driver = application.driver()
    evaluations = {}
    with _tracing.span("analysis.compare", designs=len(designs)):
        for design in designs:
            replay = runner.replay(driver, design, budget)
            evaluations[design.label] = DesignEvaluation(
                label=design.label,
                bus_count=design.bus_count,
                stats=replay.stats,
                critical_stats=replay.critical_stats,
                finished=replay.finished,
            )
    return evaluations
