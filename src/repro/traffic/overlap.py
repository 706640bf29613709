"""Pairwise temporal overlap between target traffic streams.

For every pair of targets ``(t_i, t_j)`` and window ``m`` the paper records
``wo[i][j][m]``, the number of cycles in which both streams are active
simultaneously (Definition 2), and aggregates it into the overlap matrix
``om[i][j] = sum_m wo[i][j][m]`` (Eq. 1). The pre-processing phase turns
per-window overlaps above a threshold into bus-separation conflicts, and
the binding phase minimizes the summed overlap per bus.
"""

from __future__ import annotations


import numpy as np

from repro.errors import WindowError
from repro.traffic.intervals import intersect
from repro.traffic.kernels import TraceAnalytics
from repro.traffic.windows import WindowedTraffic

__all__ = ["PairwiseOverlap", "legacy_overlap_tensor"]


def legacy_overlap_tensor(
    windowed: WindowedTraffic, critical_only: bool = False
) -> np.ndarray:
    """Reference ``wo`` builder: per-pair two-pointer interval merges.

    The original implementation -- intersect every pair of per-target
    interval lists and bin the result. Kept as the ground truth the
    vectorized kernel (:meth:`CompiledActivity.overlap_tensor`) is
    equivalence-tested against.
    """
    trace = windowed.trace
    num_targets = trace.num_targets
    tensor = np.zeros(
        (num_targets, num_targets, windowed.num_windows), dtype=np.int64
    )
    activities = [
        trace.target_activity(idx, critical_only=critical_only)
        for idx in range(num_targets)
    ]
    for i in range(num_targets):
        if not activities[i]:
            continue
        for j in range(i + 1, num_targets):
            if not activities[j]:
                continue
            common = intersect(activities[i], activities[j])
            if not common:
                continue
            bins = windowed._bin_activity(common)
            tensor[i, j] = bins
            tensor[j, i] = bins
    return tensor


class PairwiseOverlap:
    """Computes and stores ``wo[i][j][m]`` and ``om[i][j]`` for a trace.

    The all-pairs tensor is produced by the vectorized columnar kernels
    (:mod:`repro.traffic.kernels`); the trace is compiled once and the
    result memoized per window geometry, so repeated constructions over
    the same trace (threshold sweeps, criticality analysis after the
    total-traffic overlap) cost array lookups, not interval merges.

    Parameters
    ----------
    windowed:
        The window segmentation whose geometry (WS, |W|) is reused.
    critical_only:
        Restrict the computation to critical (real-time) traffic; used to
        find overlapping real-time streams in the pre-processing phase.
    """

    def __init__(self, windowed: WindowedTraffic, critical_only: bool = False) -> None:
        self.windowed = windowed
        self.critical_only = critical_only
        self._wo = TraceAnalytics.of(windowed.trace).wo(
            windowed.boundaries, critical_only=critical_only
        )

    @property
    def wo(self) -> np.ndarray:
        """``wo[i][j][m]``: overlap cycles of targets i and j in window m.

        Symmetric in (i, j); the diagonal is zero by convention (a stream
        trivially overlaps itself, but the paper's constraints only use
        distinct pairs).
        """
        return self._wo

    @property
    def overlap_matrix(self) -> np.ndarray:
        """``om[i][j]``: total overlap across all windows (paper Eq. 1)."""
        return self._wo.sum(axis=2)

    def max_window_overlap(self, i: int, j: int) -> int:
        """Largest single-window overlap between targets ``i`` and ``j``."""
        self._check(i)
        self._check(j)
        return int(self._wo[i, j].max(initial=0))

    def max_window_fraction(self, i: int, j: int) -> float:
        """Largest single-window overlap as a fraction of the window size."""
        return self.max_window_overlap(i, j) / float(self.windowed.window_size)

    def pairs_exceeding(self, threshold_fraction: float) -> list[tuple[int, int]]:
        """Pairs whose overlap exceeds the threshold in *any* window.

        ``threshold_fraction`` is relative to the window size; the paper
        bounds it at 0.5 because two streams overlapping more than half a
        window can never share a bus anyway (their combined demand would
        exceed the window's capacity).
        """
        if threshold_fraction < 0:
            raise WindowError(
                f"overlap threshold must be non-negative, got {threshold_fraction}"
            )
        limits = threshold_fraction * self.windowed.capacities
        num_targets = self._wo.shape[0]
        over = []
        for i in range(num_targets):
            for j in range(i + 1, num_targets):
                if (self._wo[i, j] > limits).any():
                    over.append((i, j))
        return over

    def _check(self, index: int) -> None:
        if not 0 <= index < self._wo.shape[0]:
            raise WindowError(f"target index {index} out of range")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flavor = "critical" if self.critical_only else "total"
        return (
            f"<PairwiseOverlap {flavor}, {self._wo.shape[0]} targets, "
            f"{self._wo.shape[2]} windows>"
        )
