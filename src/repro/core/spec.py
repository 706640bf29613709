"""Synthesis configuration and result objects.

A configuration names no solver: every feasibility probe and binding
runs on the assignment DFS (:mod:`repro.core.assignment`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["SynthesisConfig", "BusBinding", "CrossbarDesign"]


@dataclass(frozen=True)
class SynthesisConfig:
    """Tunable parameters of the design methodology (paper Sec. 7.4).

    Attributes
    ----------
    window_size:
        Analysis window ``WS`` in cycles; ``None`` uses the application's
        recommended window. Small windows approach peak-bandwidth design,
        a window covering the whole simulation degenerates to
        average-traffic design (paper Sec. 2).
    overlap_threshold:
        Fraction of ``WS``; target pairs whose overlap exceeds it in
        *any* window are forced onto different buses. The useful range
        ends at 0.5 (Sec. 7.4). Aggressive designs use ~0.1,
        conservative ~0.3-0.4.
    max_targets_per_bus:
        The paper's ``maxtb`` (Eq. 8), bounding worst-case serialization
        latency. ``None`` disables the limit.
    use_criticality:
        Whether overlapping real-time streams force conflicts.
    node_limit:
        Search-node budget per solve; exceeding it raises unless a
        feasible incumbent exists (reported as non-optimal).
    variable_windows:
        Use phase-aligned variable-size windows instead of uniform ones
        (the paper's QoS future-work direction,
        :mod:`repro.traffic.qos`). The nominal window size then acts as
        the *maximum* window; windows shrink to track traffic phases
        down to ``window_size / variable_window_ratio``.
    variable_window_ratio:
        Maximum-to-minimum window size ratio for variable windows.
    """

    window_size: Optional[int] = None
    overlap_threshold: float = 0.3
    max_targets_per_bus: Optional[int] = 4
    use_criticality: bool = True
    node_limit: int = 2_000_000
    variable_windows: bool = False
    variable_window_ratio: int = 5

    def __post_init__(self) -> None:
        if self.window_size is not None and self.window_size < 1:
            raise ConfigurationError("window_size must be >= 1 or None")
        if not 0.0 <= self.overlap_threshold <= 0.5:
            raise ConfigurationError(
                "overlap_threshold must lie in [0, 0.5]: beyond 0.5 the "
                "window bandwidth constraint is violated anyway (Sec. 7.4)"
            )
        if self.max_targets_per_bus is not None and self.max_targets_per_bus < 1:
            raise ConfigurationError("max_targets_per_bus must be >= 1 or None")
        if self.node_limit < 1:
            raise ConfigurationError("node_limit must be positive")
        if self.variable_window_ratio < 1:
            raise ConfigurationError("variable_window_ratio must be >= 1")


@dataclass(frozen=True)
class BusBinding:
    """One designed crossbar side: the target -> bus assignment.

    Attributes
    ----------
    binding:
        ``binding[i]`` is the bus index of target ``i`` (dense, so
        ``max + 1`` equals :attr:`num_buses`).
    num_buses:
        Bus count of this crossbar.
    max_bus_overlap:
        The optimized objective: the largest per-bus summed pairwise
        overlap (Eq. 11's ``maxov``), in cycles.
    optimal:
        Whether the binding was proven optimal (False when a node budget
        stopped the search with an incumbent).
    """

    binding: Tuple[int, ...]
    num_buses: int
    max_bus_overlap: int = 0
    optimal: bool = True

    def __post_init__(self) -> None:
        if self.num_buses < 1:
            raise ConfigurationError("a crossbar needs at least one bus")
        if len(self.binding) < self.num_buses:
            raise ConfigurationError(
                f"{self.num_buses} buses for only {len(self.binding)} targets"
            )
        used = set(self.binding)
        if used != set(range(self.num_buses)):
            raise ConfigurationError(
                f"binding {self.binding} does not use buses 0..{self.num_buses - 1} "
                f"densely"
            )

    def targets_on_bus(self, bus: int) -> Tuple[int, ...]:
        """Targets assigned to ``bus``."""
        return tuple(t for t, b in enumerate(self.binding) if b == bus)

    def as_list(self) -> list:
        """The binding as a plain list (for :class:`repro.platform.SoC`)."""
        return list(self.binding)


@dataclass(frozen=True)
class CrossbarDesign:
    """A complete design: both crossbars of one application.

    ``it`` binds targets to initiator->target buses; ``ti`` binds
    initiators to target->initiator buses.
    """

    it: BusBinding
    ti: BusBinding
    label: str = "windowed"

    @property
    def bus_count(self) -> int:
        """Total buses across both crossbars (the paper's size metric)."""
        return self.it.num_buses + self.ti.num_buses

    def size_ratio_vs(self, other: "CrossbarDesign") -> float:
        """This design's bus count relative to another design's."""
        return other.bus_count / self.bus_count if self.bus_count else float("inf")
