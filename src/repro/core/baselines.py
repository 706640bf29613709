"""Baseline design styles the paper compares against.

* :func:`average_traffic_design` -- prior work ([18], [19], [15] in the
  paper): size and bind by the *average* bandwidth over the whole run.
  Implemented by collapsing the analysis to a single window spanning the
  simulation and disabling overlap machinery -- the degenerate point of
  the window-size spectrum the paper describes in Sec. 2.
* :func:`peak_bandwidth_design` -- the other extreme ([4], Ho-Pinkston):
  eliminate contention outright by separating every pair of streams that
  ever overlaps; faithful to "even a small amount of overlap between two
  traffic streams would result in the need for separate communication
  resources".
* :func:`shared_bus_design` / :func:`full_crossbar_design` -- the fixed
  reference points of Table 1.
"""

from __future__ import annotations


from repro.core.binding import optimize_binding
from repro.core.preprocess import build_conflicts
from repro.core.problem import CrossbarDesignProblem
from repro.core.search import search_minimum_buses
from repro.core.spec import BusBinding, CrossbarDesign, SynthesisConfig
from repro.pipeline.runner import timed_stage
from repro.traffic.trace import TrafficTrace

__all__ = [
    "average_traffic_design",
    "peak_bandwidth_design",
    "shared_bus_design",
    "full_crossbar_design",
]


def _design_both_sides(
    trace: TrafficTrace, window_size: int, config: SynthesisConfig, label: str
) -> CrossbarDesign:
    """The flow's phases outside the pipeline (nothing is cached), each
    timed as the pipeline stage it is."""

    def bind(problem, conflicts):
        search = search_minimum_buses(problem, conflicts, config)
        return optimize_binding(problem, conflicts, search.num_buses, config)

    sides = []
    for mirrored in (False, True):
        problem = timed_stage(
            "window",
            "",
            lambda: CrossbarDesignProblem.from_trace(
                trace.mirrored() if mirrored else trace, window_size
            ),
        )
        conflicts = timed_stage(
            "conflicts", "", lambda: build_conflicts(problem, config)
        )
        sides.append(timed_stage("bind", "", lambda: bind(problem, conflicts)))
    return CrossbarDesign(it=sides[0], ti=sides[1], label=label)


def average_traffic_design(trace: TrafficTrace) -> CrossbarDesign:
    """Design from whole-run average bandwidth (prior-work baseline).

    One window covering the entire simulation period, no overlap
    threshold conflicts, no criticality separation, no per-bus target
    cap: the design minimizes bus count against average bandwidth only,
    then binds (the overlap objective is degenerate since a single
    window's overlap carries no locality information).
    """
    config = SynthesisConfig(
        window_size=trace.total_cycles,
        overlap_threshold=0.5,  # pairs above 50% cannot share regardless
        max_targets_per_bus=None,
        use_criticality=False,
    )
    return _design_both_sides(
        trace, trace.total_cycles, config, label="average-traffic"
    )


def peak_bandwidth_design(
    trace: TrafficTrace, window_size: int = 1_000
) -> CrossbarDesign:
    """Contention-elimination design (Ho-Pinkston-style baseline).

    Any two streams that overlap at all in some window are forced onto
    different buses (overlap threshold zero), over-sizing the crossbar
    exactly the way the paper criticizes in Sec. 2.
    """
    config = SynthesisConfig(
        window_size=window_size,
        overlap_threshold=0.0,
        max_targets_per_bus=None,
        use_criticality=False,
    )
    return _design_both_sides(trace, window_size, config, label="peak-bandwidth")


def shared_bus_design(trace: TrafficTrace) -> CrossbarDesign:
    """One bus per direction: the paper's 'shared' reference point."""
    it = BusBinding(binding=(0,) * trace.num_targets, num_buses=1)
    ti = BusBinding(binding=(0,) * trace.num_initiators, num_buses=1)
    return CrossbarDesign(it=it, ti=ti, label="shared")


def full_crossbar_design(trace: TrafficTrace) -> CrossbarDesign:
    """One bus per core: the paper's 'full' reference point."""
    it = BusBinding(
        binding=tuple(range(trace.num_targets)), num_buses=trace.num_targets
    )
    ti = BusBinding(
        binding=tuple(range(trace.num_initiators)),
        num_buses=trace.num_initiators,
    )
    return CrossbarDesign(it=it, ti=ti, label="full")
