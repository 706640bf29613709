"""Vectorized columnar traffic-analytics kernels.

The windowed traffic analysis (``comm[i][m]``, Definition 2) and the
pairwise overlap tensor (``wo[i][j][m]``) dominate every design-space
sweep: the interval-list reference implementation in
:mod:`repro.traffic.intervals` re-filters records and re-runs two-pointer
merges for every (pair, window-geometry) combination. This module
compiles a :class:`~repro.traffic.trace.TrafficTrace` **once** into a
columnar NumPy form and answers every subsequent analytics query with
``searchsorted`` / prefix-sum array operations:

* :class:`CompiledActivity` -- the normalized per-target busy intervals
  of one trace flavor (total or critical-only), stored as flat sorted
  boundary arrays plus prefix sums of the cycle occupancy.
* :class:`TraceAnalytics` -- the per-trace memo. It owns the columnar
  record arrays, compiles each flavor lazily, and caches ``comm`` / ``wo``
  results per window geometry so that sweeps over *different* window
  sizes or thresholds on the same trace share all compiled state (and,
  for identical geometries such as a threshold sweep, the results
  themselves).

The kernels are exact: results are byte-identical to the interval-list
reference path (asserted by ``tests/traffic/test_kernels.py``).

Implementation notes
--------------------
All per-target interval arrays live in a single *shifted* coordinate
space: target ``t``'s cycles are translated by ``t * (total_cycles + 1)``
so that the targets occupy disjoint ranges of one sorted axis. A single
global ``searchsorted`` then answers point-location queries for every
target at once, and the prefix sums of the shifted boundaries yield the
cycle occupancy ``F(q) = measure(activity ∩ [0, q))`` in O(log n) per
query -- ``comm[t][m]`` is just ``F`` differenced at consecutive window
edges. The overlap tensor decomposes the timeline into elementary
segments (all activity boundaries plus the window edges), builds the
boolean activity matrix ``ACT[t, segment]`` with the same global
``searchsorted``, and reduces ``wo[:, :, m]`` to one small integer
matmul per window.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.errors import TraceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.traffic.trace import TrafficTrace

__all__ = ["CompiledActivity", "TraceAnalytics"]

Interval = Tuple[int, int]

_GEOMETRY_MEMO_SLOTS = 8
"""Window geometries memoized per (trace, kind); sweeps rarely revisit
more than a handful, and each entry is at most a few MB."""


def _as_edges(edges) -> np.ndarray:
    """Validate and canonicalize a window-edge array."""
    array = np.asarray(edges, dtype=np.int64)
    if array.ndim != 1 or array.size < 2:
        raise TraceError("need at least two window edges")
    if array[0] != 0:
        raise TraceError("window edges must start at cycle 0")
    if (np.diff(array) <= 0).any():
        raise TraceError("window edges must be strictly increasing")
    return array


def _unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D array: ``np.unique`` without the
    ``numpy.ma`` import it triggers on first call (~12 ms cold)."""
    ordered = np.sort(values)
    if ordered.size < 2:
        return ordered
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


class CompiledActivity:
    """Normalized per-target activity in columnar (structure-of-arrays) form.

    Attributes
    ----------
    starts / ends:
        Flat ``int64`` arrays of the merged busy intervals of *all*
        targets, sorted by (target, start); equivalent to running
        :func:`repro.traffic.intervals.normalize` per target.
    ptr:
        CSR-style offsets: target ``t`` owns rows ``ptr[t]:ptr[t + 1]``.
    """

    def __init__(
        self,
        targets: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        num_targets: int,
        total_cycles: int,
    ) -> None:
        if (ends < starts).any():
            raise TraceError("inverted interval in activity columns")
        self.num_targets = int(num_targets)
        self.total_cycles = int(total_cycles)
        stride = self.total_cycles + 1

        keep = ends > starts  # zero-length occupancy carries no cycles
        shifted_start = starts[keep] + targets[keep] * stride
        shifted_end = ends[keep] + targets[keep] * stride
        order = np.argsort(shifted_start, kind="stable")
        shifted_start = shifted_start[order]
        shifted_end = shifted_end[order]

        if shifted_start.size:
            # Merge overlapping/touching intervals per target in one
            # vectorized pass: a new merged run begins exactly where a
            # start exceeds the running maximum of all previous ends.
            # The stride keeps targets in disjoint ranges, so runs never
            # cross a target boundary.
            running_end = np.maximum.accumulate(shifted_end)
            new_run = np.empty(shifted_start.size, dtype=bool)
            new_run[0] = True
            new_run[1:] = shifted_start[1:] > running_end[:-1]
            run_first = np.flatnonzero(new_run)
            run_last = np.append(run_first[1:] - 1, shifted_start.size - 1)
            merged_start = shifted_start[new_run]
            merged_end = running_end[run_last]
        else:
            merged_start = shifted_start
            merged_end = shifted_end

        owner = merged_start // stride
        self.starts = merged_start - owner * stride
        self.ends = merged_end - owner * stride
        self.ptr = np.searchsorted(owner, np.arange(num_targets + 1))
        self._stride = stride
        self._shift_starts = merged_start
        self._shift_ends = merged_end
        self._cum_starts = np.concatenate(
            ([0], np.cumsum(merged_start, dtype=np.int64))
        )
        self._cum_ends = np.concatenate(
            ([0], np.cumsum(merged_end, dtype=np.int64))
        )
        self._offsets = np.arange(num_targets, dtype=np.int64) * stride

    @property
    def num_intervals(self) -> int:
        """Total merged intervals across all targets."""
        return int(self.starts.size)

    def intervals(self, target: int) -> List[Interval]:
        """Target ``target``'s normalized interval list (Python tuples)."""
        lo, hi = int(self.ptr[target]), int(self.ptr[target + 1])
        return list(
            zip(self.starts[lo:hi].tolist(), self.ends[lo:hi].tolist())
        )

    def busy_cycles(self) -> np.ndarray:
        """Per-target total busy cycles."""
        lengths = self.ends - self.starts
        totals = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        return totals[self.ptr[1:]] - totals[self.ptr[:-1]]

    def _occupancy_at(self, queries: np.ndarray) -> np.ndarray:
        """``F(q)`` for shifted queries: busy cycles in ``[0, q)``.

        The per-target constant contributed by other targets' intervals
        cancels whenever ``F`` is differenced at two queries inside the
        same target's coordinate range -- which is the only way callers
        use it.
        """
        at_start = np.searchsorted(self._shift_starts, queries, side="right")
        at_end = np.searchsorted(self._shift_ends, queries, side="right")
        return (
            self._cum_ends[at_end]
            - self._cum_starts[at_start]
            + (at_start - at_end) * queries
        )

    def coverage(self, edges) -> np.ndarray:
        """Busy cycles of every target in every window: shape ``(T, M)``.

        Exactly :func:`repro.traffic.intervals.coverage_in_windows` /
        ``coverage_in_bins`` applied to each target's normalized
        activity, computed for all targets and windows at once.
        """
        edge_array = _as_edges(edges)
        clipped = np.minimum(edge_array, self.total_cycles)
        queries = clipped[None, :] + self._offsets[:, None]
        occupancy = self._occupancy_at(queries.ravel()).reshape(queries.shape)
        return np.diff(occupancy, axis=1)

    def active_matrix(self, points: np.ndarray) -> np.ndarray:
        """Boolean ``(T, len(points))``: is each target busy at cycle p?"""
        queries = (points[None, :] + self._offsets[:, None]).ravel()
        at_start = np.searchsorted(self._shift_starts, queries, side="right")
        at_end = np.searchsorted(self._shift_ends, queries, side="right")
        return (at_start - at_end).reshape(
            self.num_targets, points.size
        ).astype(bool)

    def overlap_tensor(self, edges) -> np.ndarray:
        """Pairwise per-window overlap cycles: shape ``(T, T, M)``.

        Symmetric in (i, j) with a zero diagonal -- byte-identical to
        intersecting each pair's interval lists and binning the result
        (the legacy :class:`~repro.traffic.overlap.PairwiseOverlap`
        path).
        """
        edge_array = _as_edges(edges)
        num_windows = edge_array.size - 1
        num_targets = self.num_targets
        tensor = np.zeros(
            (num_targets, num_targets, num_windows), dtype=np.int64
        )
        if self.num_intervals == 0:
            return tensor

        # Elementary segments: between consecutive boundary points every
        # target is constantly busy or idle, and no segment straddles a
        # window edge.
        clipped = np.minimum(edge_array, self.total_cycles)
        bounds = _unique(np.concatenate((self.starts, self.ends, clipped)))
        seg_left = bounds[:-1]
        seg_len = np.diff(bounds)
        active = self.active_matrix(seg_left)
        weighted = active * seg_len  # (T, S) busy cycles per segment

        window_at = np.searchsorted(bounds, clipped)
        active_int = active.astype(np.int64)
        for window in range(num_windows):
            lo, hi = window_at[window], window_at[window + 1]
            if lo == hi:
                continue
            tensor[:, :, window] = (
                weighted[:, lo:hi] @ active_int[:, lo:hi].T
            )
        diagonal = np.arange(num_targets)
        tensor[diagonal, diagonal, :] = 0
        return tensor


class TraceAnalytics:
    """Per-trace analytics memo shared across window geometries.

    One instance is attached to each :class:`TrafficTrace` (see
    :meth:`of`); it reads the trace's columns, compiles each
    flavor (total / critical-only) lazily into a
    :class:`CompiledActivity`, and memoizes ``comm`` and ``wo`` results
    per window geometry in small LRU maps. A threshold sweep therefore
    computes the overlap tensor once for all its points, and a
    window-size sweep recompiles nothing between points.
    """

    def __init__(self, trace: "TrafficTrace") -> None:
        self.num_targets = trace.num_targets
        self.total_cycles = trace.total_cycles
        self._targets = trace.column("target")
        self._starts = trace.column("it_grant")
        self._ends = trace.column("it_release")
        self._critical = trace.column("critical") == 1
        self._compiled: Dict[bool, CompiledActivity] = {}
        self._comm_memo: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._wo_memo: "OrderedDict[tuple, np.ndarray]" = OrderedDict()

    @classmethod
    def of(cls, trace: "TrafficTrace") -> "TraceAnalytics":
        """The trace's analytics memo (compiled on first use).

        The instance rides on the trace object itself, so everything
        holding the trace -- sweep drivers, the synthesis flow for both
        crossbar sides -- shares one compiled form.
        """
        analytics = trace.__dict__.get("_analytics")
        if analytics is None:
            analytics = cls(trace)
            trace.__dict__["_analytics"] = analytics
        return analytics

    def compiled(self, critical_only: bool = False) -> CompiledActivity:
        """The columnar normalized activity of one flavor."""
        compiled = self._compiled.get(critical_only)
        if compiled is None:
            if critical_only:
                mask = self._critical
                columns = (
                    self._targets[mask],
                    self._starts[mask],
                    self._ends[mask],
                )
            else:
                columns = (self._targets, self._starts, self._ends)
            compiled = CompiledActivity(
                *columns,
                num_targets=self.num_targets,
                total_cycles=self.total_cycles,
            )
            self._compiled[critical_only] = compiled
        return compiled

    def intervals(self, target: int, critical_only: bool = False) -> List[Interval]:
        """Normalized busy intervals of one target (kernel-derived)."""
        return self.compiled(critical_only).intervals(target)

    def critical_targets(self) -> List[int]:
        """Targets receiving at least one critical transaction."""
        return _unique(self._targets[self._critical]).tolist()

    def comm(self, edges, critical_only: bool = False) -> np.ndarray:
        """``comm[i][m]`` for the given window edges (memoized)."""
        return self._memoized(
            self._comm_memo, "coverage", edges, critical_only
        )

    def wo(self, edges, critical_only: bool = False) -> np.ndarray:
        """``wo[i][j][m]`` for the given window edges (memoized)."""
        return self._memoized(
            self._wo_memo, "overlap_tensor", edges, critical_only
        )

    def _memoized(
        self,
        memo: "OrderedDict[tuple, np.ndarray]",
        kernel: str,
        edges,
        critical_only: bool,
    ) -> np.ndarray:
        edge_array = _as_edges(edges)
        key = (bool(critical_only), edge_array.tobytes())
        cached = memo.get(key)
        if cached is None:
            cached = getattr(self.compiled(critical_only), kernel)(edge_array)
            # Shared across every consumer of this geometry: handing the
            # array out write-protected keeps memo hits allocation-free
            # while making any would-be writer fail loudly instead of
            # corrupting other consumers' results.
            cached.setflags(write=False)
            memo[key] = cached
            if len(memo) > _GEOMETRY_MEMO_SLOTS:
                memo.popitem(last=False)
        else:
            memo.move_to_end(key)
        return cached

