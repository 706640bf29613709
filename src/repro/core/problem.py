"""The crossbar design problem instance.

A :class:`CrossbarDesignProblem` packages everything Phase 2 extracts
from the full-crossbar trace for *one* crossbar side: the per-window
received-data matrix ``comm[i][m]`` (Definition 2), the per-window
pairwise overlap ``wo[i][j][m]``, the aggregate overlap matrix ``om``
(Eq. 1), and the criticality report. Designing the target->initiator
crossbar uses the same class on the mirrored trace.

Windows may have unequal sizes (the paper's variable-window future-work
direction): ``capacities[m]`` carries each window's cycle budget, and
every constraint that the uniform formulation writes against ``WS``
evaluates against its own window's capacity instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import SynthesisError
from repro.traffic.criticality import CriticalityReport, analyze_criticality
from repro.traffic.overlap import PairwiseOverlap
from repro.traffic.trace import TrafficTrace
from repro.traffic.windows import WindowedTraffic

__all__ = ["CrossbarDesignProblem"]


@dataclass(frozen=True)
class CrossbarDesignProblem:
    """Windowed traffic data for one crossbar side.

    Attributes
    ----------
    comm:
        ``int64`` array of shape ``(T, W)``: busy cycles per target and
        window.
    wo:
        ``int64`` array of shape ``(T, T, W)``: pairwise overlap cycles.
    window_size:
        ``WS`` in cycles; for variable windows, the largest capacity.
    criticality:
        Real-time stream analysis (overlapping critical pairs).
    target_names:
        For reporting.
    capacities:
        Per-window cycle budgets; defaults to ``window_size`` everywhere
        (the paper's uniform case).
    """

    comm: np.ndarray
    wo: np.ndarray
    window_size: int
    criticality: CriticalityReport
    target_names: Tuple[str, ...]
    capacities: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.comm.ndim != 2:
            raise SynthesisError("comm must be a (targets, windows) matrix")
        num_targets, num_windows = self.comm.shape
        if self.wo.shape != (num_targets, num_targets, num_windows):
            raise SynthesisError(
                f"wo shape {self.wo.shape} inconsistent with comm "
                f"{self.comm.shape}"
            )
        if self.capacities is None:
            object.__setattr__(
                self,
                "capacities",
                np.full(num_windows, self.window_size, dtype=np.int64),
            )
        else:
            capacities = np.asarray(self.capacities, dtype=np.int64)
            if capacities.shape != (num_windows,):
                raise SynthesisError(
                    f"capacities shape {capacities.shape} does not match "
                    f"{num_windows} windows"
                )
            if (capacities < 1).any():
                raise SynthesisError("every window capacity must be >= 1")
            if int(capacities.max(initial=1)) != self.window_size:
                raise SynthesisError(
                    "window_size must equal the largest window capacity"
                )
            object.__setattr__(self, "capacities", capacities)
        if (self.comm > self.capacities).any():
            raise SynthesisError("comm entries exceed their window capacity")
        if (self.comm < 0).any():
            raise SynthesisError("comm entries must be non-negative")
        if len(self.target_names) != num_targets:
            raise SynthesisError("target_names length mismatch")

    @classmethod
    def from_trace(
        cls, trace: TrafficTrace, window_size: int
    ) -> "CrossbarDesignProblem":
        """Phase-2 data collection with uniform windows."""
        windowed = WindowedTraffic(trace, window_size=window_size)
        return cls.from_windowed(windowed)

    @classmethod
    def from_trace_boundaries(
        cls, trace: TrafficTrace, boundaries: Sequence[int]
    ) -> "CrossbarDesignProblem":
        """Phase-2 data collection with explicit variable windows."""
        windowed = WindowedTraffic(trace, boundaries=boundaries)
        return cls.from_windowed(windowed)

    @classmethod
    def from_windowed(cls, windowed: WindowedTraffic) -> "CrossbarDesignProblem":
        """Build from an existing window segmentation."""
        overlap = PairwiseOverlap(windowed)
        return cls(
            comm=windowed.comm,
            wo=overlap.wo,
            window_size=windowed.window_size,
            criticality=analyze_criticality(windowed),
            target_names=tuple(windowed.trace.target_names),
            capacities=windowed.capacities,
        )

    @property
    def num_targets(self) -> int:
        """``|T|``."""
        return self.comm.shape[0]

    @property
    def num_windows(self) -> int:
        """``|W|``."""
        return self.comm.shape[1]

    @property
    def overlap_matrix(self) -> np.ndarray:
        """``om[i][j]`` -- total overlap across windows (Eq. 1)."""
        return self.wo.sum(axis=2)

    def bandwidth_lower_bound(self) -> int:
        """Min buses needed by window bandwidth alone (ceil of peak)."""
        demand = self.comm.sum(axis=0)
        if demand.size == 0:
            return 1
        return max(
            1, int(np.ceil(demand / self.capacities.astype(float)).max())
        )

    def total_busy(self) -> np.ndarray:
        """Per-target total busy cycles (used for search ordering)."""
        return self.comm.sum(axis=1)

    def restricted_to(self, targets: Sequence[int]) -> "CrossbarDesignProblem":
        """Sub-problem over a subset of targets (index order preserved)."""
        index = list(targets)
        return CrossbarDesignProblem(
            comm=self.comm[index],
            wo=self.wo[np.ix_(index, index)],
            window_size=self.window_size,
            criticality=CriticalityReport(),  # criticality is re-derived upstream
            target_names=tuple(self.target_names[i] for i in index),
            capacities=self.capacities,
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.num_targets} targets x {self.num_windows} windows of "
            f"{self.window_size} cycles; bandwidth LB = "
            f"{self.bandwidth_lower_bound()}"
        )
