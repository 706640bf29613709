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

The two designed baselines are :meth:`PipelineRunner.design
<repro.pipeline.runner.PipelineRunner.design>` under their own
configurations, relabelled. :func:`average_traffic_design` runs on the
runner passed as ``pipeline`` (a fresh one by default) and takes a
deferred :class:`~repro.pipeline.artifacts.CollectedTraffic` as well as
a trace, so a warm cache-backed runner solves nothing and loads no
trace; :func:`peak_bandwidth_design` runs on a fresh runner. The two
fixed reference points read only the core counts, which a trace and a
:class:`~repro.pipeline.artifacts.TraceShape` both carry.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

from repro.core.spec import BusBinding, CrossbarDesign, SynthesisConfig
from repro.pipeline.artifacts import CollectedTraffic, TraceShape
from repro.pipeline.runner import PipelineRunner
from repro.traffic.trace import TrafficTrace

__all__ = [
    "average_traffic_design",
    "peak_bandwidth_design",
    "shared_bus_design",
    "full_crossbar_design",
]


def _pipeline_design(
    trace: Union[TrafficTrace, CollectedTraffic],
    config: SynthesisConfig,
    label: str,
    pipeline: Optional[PipelineRunner],
) -> CrossbarDesign:
    runner = pipeline if pipeline is not None else PipelineRunner()
    outcome = runner.design(trace, config, config.window_size)
    return replace(outcome.design, label=label)


def average_traffic_design(
    trace: Union[TrafficTrace, CollectedTraffic],
    pipeline: Optional[PipelineRunner] = None,
) -> CrossbarDesign:
    """Design from whole-run average bandwidth (prior-work baseline).

    One window covering the entire simulation period, no overlap
    threshold conflicts, no criticality separation, no per-bus target
    cap: the design minimizes bus count against average bandwidth only,
    then binds (the overlap objective is degenerate since a single
    window's overlap carries no locality information). A deferred
    ``trace`` is read only through its shape's ``total_cycles`` until a
    window stage must compute.
    """
    shape = trace.source.shape if isinstance(trace, CollectedTraffic) else trace
    config = SynthesisConfig(
        window_size=shape.total_cycles,
        overlap_threshold=0.5,  # pairs above 50% cannot share regardless
        max_targets_per_bus=None,
        use_criticality=False,
    )
    return _pipeline_design(trace, config, "average-traffic", pipeline)


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
    return _pipeline_design(trace, config, "peak-bandwidth", None)


def shared_bus_design(trace: Union[TrafficTrace, TraceShape]) -> CrossbarDesign:
    """One bus per direction: the paper's 'shared' reference point."""
    it = BusBinding(binding=(0,) * trace.num_targets, num_buses=1)
    ti = BusBinding(binding=(0,) * trace.num_initiators, num_buses=1)
    return CrossbarDesign(it=it, ti=ti, label="shared")


def full_crossbar_design(trace: Union[TrafficTrace, TraceShape]) -> CrossbarDesign:
    """One bus per core: the paper's 'full' reference point."""
    it = BusBinding(
        binding=tuple(range(trace.num_targets)), num_buses=trace.num_targets
    )
    ti = BusBinding(
        binding=tuple(range(trace.num_initiators)),
        num_buses=trace.num_initiators,
    )
    return CrossbarDesign(it=it, ti=ti, label="full")
