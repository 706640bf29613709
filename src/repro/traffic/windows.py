"""Window segmentation of a traffic trace.

The paper divides the simulation period into ``|W|`` fixed-size windows of
``WS`` cycles each and records, per target ``i`` and window ``m``, the
number of cycles the target receives data: ``comm[i][m]`` (Definition 2).
:class:`WindowedTraffic` computes that matrix once (as a numpy array) and
derives the per-window bandwidth bounds the synthesis constraints use.

Setting the window size to the whole simulation period degenerates to the
average-traffic analysis of prior work; setting it near the burst size
approaches peak-bandwidth analysis -- the two extremes of the design
spectrum discussed in Section 2.

Variable-size windows (the paper's future-work direction for QoS) are
supported through explicit ``boundaries``: per-window capacities then
differ, and every downstream constraint (Eq. 4 and friends) evaluates
against its own window's capacity. See :mod:`repro.traffic.qos` for a
boundary-derivation heuristic.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.errors import WindowError
from repro.traffic.intervals import coverage_in_bins, coverage_in_windows
from repro.traffic.kernels import TraceAnalytics
from repro.traffic.trace import TrafficTrace

__all__ = ["WindowedTraffic", "legacy_comm_matrix"]


def legacy_comm_matrix(
    windowed: "WindowedTraffic", critical_only: bool = False
) -> np.ndarray:
    """Reference ``comm`` builder: per-target interval lists, binned.

    This is the original pure-Python path (activity filtering via
    :meth:`TrafficTrace.target_activity` plus interval binning); the
    vectorized kernels in :mod:`repro.traffic.kernels` are asserted
    byte-identical to it by the equivalence test-suite.
    """
    trace = windowed.trace
    matrix = np.zeros((trace.num_targets, windowed.num_windows), dtype=np.int64)
    for target in range(trace.num_targets):
        activity = trace.target_activity(target, critical_only=critical_only)
        matrix[target] = windowed._bin_activity(activity)
    return matrix


class WindowedTraffic:
    """Per-window received-data matrix ``comm[i][m]`` for one trace.

    Parameters
    ----------
    trace:
        Full-crossbar traffic trace (Phase 1 output).
    window_size:
        ``WS``, the analysis window length in cycles (uniform windows).
        Mutually exclusive with ``boundaries``.
    num_windows:
        Override for ``|W|``; defaults to ``ceil(total_cycles / WS)``.
    boundaries:
        Explicit, strictly increasing window edges for variable-size
        windows; must start at 0 and cover the simulation period.
    """

    def __init__(
        self,
        trace: TrafficTrace,
        window_size: Optional[int] = None,
        num_windows: Optional[int] = None,
        boundaries: Optional[Sequence[int]] = None,
    ) -> None:
        self.trace = trace
        if boundaries is not None:
            if window_size is not None:
                raise WindowError(
                    "pass either window_size or boundaries, not both"
                )
            edges = np.asarray(boundaries, dtype=np.int64)
            if edges.size < 2 or edges[0] != 0:
                raise WindowError("boundaries must start at 0")
            if (np.diff(edges) <= 0).any():
                raise WindowError("boundaries must be strictly increasing")
            if edges[-1] < trace.total_cycles:
                raise WindowError(
                    f"boundaries end at {edges[-1]}, trace has "
                    f"{trace.total_cycles} cycles"
                )
            self._edges = edges
            self.num_windows = int(edges.size - 1)
            self.capacities = np.diff(edges).astype(np.int64)
            self.window_size = int(self.capacities.max())
        else:
            if window_size is None:
                raise WindowError("window_size or boundaries is required")
            if window_size < 1:
                raise WindowError(f"window size must be >= 1, got {window_size}")
            if window_size > trace.total_cycles:
                window_size = trace.total_cycles
            self.window_size = int(window_size)
            derived = math.ceil(trace.total_cycles / self.window_size)
            if num_windows is None:
                num_windows = derived
            elif num_windows < derived:
                raise WindowError(
                    f"{num_windows} windows of {window_size} cycles do not "
                    f"cover the {trace.total_cycles}-cycle simulation period"
                )
            self.num_windows = int(num_windows)
            self.capacities = np.full(
                self.num_windows, self.window_size, dtype=np.int64
            )
            self._edges = None
        self._comm = self._build_comm(critical_only=False)
        self._critical_comm: Optional[np.ndarray] = None

    @property
    def is_uniform(self) -> bool:
        """Whether all windows share one size (the paper's base case)."""
        return self._edges is None

    @property
    def boundaries(self) -> np.ndarray:
        """Window edges (derived for uniform windows)."""
        if self._edges is not None:
            return self._edges
        return np.arange(self.num_windows + 1, dtype=np.int64) * self.window_size

    def _bin_activity(self, activity) -> np.ndarray:
        if self._edges is None:
            return coverage_in_windows(
                activity, self.window_size, self.num_windows
            )
        return coverage_in_bins(activity, self._edges)

    def _build_comm(self, critical_only: bool) -> np.ndarray:
        """``comm`` via the columnar kernels (compiled once per trace).

        The compiled form and the per-geometry results are memoized on
        the trace (:class:`~repro.traffic.kernels.TraceAnalytics`), so
        re-segmenting the same trace with a different window size -- or
        asking for :attr:`critical_comm` after :attr:`comm` -- never
        re-walks the records. ``legacy_comm_matrix`` keeps the original
        interval-list path available as the reference implementation.
        """
        return TraceAnalytics.of(self.trace).comm(
            self.boundaries, critical_only=critical_only
        )

    @property
    def num_targets(self) -> int:
        """Number of targets ``|T|``."""
        return self.trace.num_targets

    @property
    def comm(self) -> np.ndarray:
        """``comm[i][m]``: busy cycles of target ``i`` in window ``m``.

        Shape ``(|T|, |W|)``; every entry lies in ``[0, capacity[m]]``.
        """
        return self._comm

    @property
    def critical_comm(self) -> np.ndarray:
        """Like :attr:`comm` but counting only critical (real-time) traffic.

        Memoized, and served by the same compiled kernel state as
        :attr:`comm` -- requesting both costs one record walk, not two.
        """
        if self._critical_comm is None:
            self._critical_comm = self._build_comm(critical_only=True)
        return self._critical_comm

    def utilization(self) -> np.ndarray:
        """Per-target, per-window utilization ``comm / capacity`` in [0, 1]."""
        return self._comm / self.capacities.astype(float)

    def peak_window_demand(self) -> np.ndarray:
        """Per-window total demand across all targets, in cycles."""
        return self._comm.sum(axis=0)

    def min_buses_bandwidth_bound(self) -> int:
        """Lower bound on bus count from window bandwidth alone.

        In window ``m`` the aggregate demand ``sum_i comm[i][m]`` must be
        carried by buses each offering ``capacity[m]`` cycles, so at least
        ``ceil(demand / capacity)`` buses are needed; the bound is the
        maximum over windows (and at least 1).
        """
        demand = self.peak_window_demand()
        if demand.size == 0:
            return 1
        per_window = np.ceil(demand / self.capacities.astype(float)).astype(int)
        return max(1, int(per_window.max()))

    def windows_exceeding(self, target: int, fraction: float) -> np.ndarray:
        """Indices of windows where a target uses more than ``fraction``
        of its window's capacity."""
        if not 0 <= target < self.num_targets:
            raise WindowError(f"target index {target} out of range")
        threshold = fraction * self.capacities
        return np.nonzero(self._comm[target] > threshold)[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flavor = (
            f"{self.window_size} cycles"
            if self.is_uniform
            else f"variable ({self.capacities.min()}..{self.capacities.max()} cy)"
        )
        return (
            f"<WindowedTraffic {self.num_targets} targets x "
            f"{self.num_windows} windows of {flavor}>"
        )
