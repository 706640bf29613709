"""Latency and utilization statistics.

The paper reports *average* and *maximum* packet latency per design
(Table 1, Fig. 4); these helpers compute them (plus distribution detail)
from traces and keep the arithmetic in one audited place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.traffic.trace import TrafficTrace

__all__ = ["LatencyStats", "summarize_latencies", "per_target_latency"]


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics of a latency sample (cycles)."""

    count: int
    mean: float
    maximum: int
    minimum: int
    p95: float

    @staticmethod
    def empty() -> "LatencyStats":
        """Statistics of an empty sample."""
        return LatencyStats(count=0, mean=0.0, maximum=0, minimum=0, p95=0.0)

    def relative_to(self, baseline: "LatencyStats") -> tuple:
        """(mean ratio, max ratio) against a baseline design's stats."""
        mean_ratio = self.mean / baseline.mean if baseline.mean else float("inf")
        max_ratio = (
            self.maximum / baseline.maximum if baseline.maximum else float("inf")
        )
        return mean_ratio, max_ratio

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.1f} max={self.maximum} "
            f"p95={self.p95:.1f}"
        )


def summarize_latencies(latencies: Sequence[int]) -> LatencyStats:
    """Compute :class:`LatencyStats` over a latency sample."""
    if not len(latencies):
        return LatencyStats.empty()
    data = np.asarray(latencies)
    return LatencyStats(
        count=int(data.size),
        mean=float(data.mean()),
        maximum=int(data.max()),
        minimum=int(data.min()),
        p95=_percentile(np.sort(data).tolist(), 0.95),
    )


def _percentile(ordered: Sequence[int], quantile: float) -> float:
    """``np.percentile`` of a sorted integer sample under its default
    linear rule, float for float: the same virtual index and the same
    two-sided interpolation as numpy's ``_lerp`` (``b - (b - a) * (1 -
    t)`` from ``t >= 0.5`` on), without the ``numpy.ma`` import that
    ``np.percentile`` costs a cold process (10-12 ms)."""
    index = (len(ordered) - 1) * quantile
    if index >= len(ordered) - 1:
        return float(ordered[-1])
    below = int(index)
    low, high = ordered[below], ordered[below + 1]
    weight = index - below
    if weight >= 0.5:
        return float(high - (high - low) * (1 - weight))
    return float(low + (high - low) * weight)


def per_target_latency(
    trace: TrafficTrace, critical_only: bool = False
) -> dict[int, LatencyStats]:
    """Latency statistics per destination target, keyed in order of the
    targets' first transactions."""
    targets = trace.column("target")
    latencies = trace.column("complete") - trace.column("issue")
    if critical_only:
        critical = trace.column("critical") == 1
        targets, latencies = targets[critical], latencies[critical]
    return {
        target: summarize_latencies(latencies[targets == target])
        for target in dict.fromkeys(targets.tolist())
    }
