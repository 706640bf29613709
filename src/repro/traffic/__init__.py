"""Traffic traces and window-based analysis.

This subpackage implements the paper's traffic-analysis layer (DATE'05,
Sections 3.2 and 5): transaction-level trace records collected from a
full-crossbar simulation, per-target activity timelines, segmentation of
the simulation period into fixed-size windows, the per-window received-data
matrix ``comm[i][m]``, the pairwise per-window overlap ``wo[i][j][m]`` and
the aggregate overlap matrix ``OM`` (Eq. 1), plus criticality annotations
for real-time streams.

A synthetic burst-traffic generator (:mod:`repro.traffic.synthetic`)
reproduces the 20-core benchmark used for the window-size and
overlap-threshold studies (paper Sections 7.2 and 7.4) without requiring a
platform simulation.
"""

from repro.traffic.events import TraceRecord, TransactionKind
from repro.traffic.trace import TrafficTrace
from repro.traffic.kernels import CompiledActivity, TraceAnalytics
from repro.traffic.windows import WindowedTraffic
from repro.traffic.overlap import PairwiseOverlap
from repro.traffic.criticality import CriticalityReport, analyze_criticality
from repro.traffic.qos import phase_aligned_boundaries
from repro.traffic.synthetic import SyntheticTrafficConfig, generate_synthetic_trace
from repro.traffic.profiles import (
    HotspotTrafficConfig,
    PipelineTrafficConfig,
    PoissonTrafficConfig,
    generate_hotspot_trace,
    generate_pipeline_trace,
    generate_poisson_trace,
    scaled_config,
    thin_trace,
)
from repro.traffic.io import load_trace_jsonl, save_trace_jsonl

__all__ = [
    "TraceRecord",
    "TransactionKind",
    "TrafficTrace",
    "CompiledActivity",
    "TraceAnalytics",
    "WindowedTraffic",
    "PairwiseOverlap",
    "CriticalityReport",
    "analyze_criticality",
    "phase_aligned_boundaries",
    "SyntheticTrafficConfig",
    "generate_synthetic_trace",
    "HotspotTrafficConfig",
    "PoissonTrafficConfig",
    "PipelineTrafficConfig",
    "generate_hotspot_trace",
    "generate_poisson_trace",
    "generate_pipeline_trace",
    "scaled_config",
    "thin_trace",
    "save_trace_jsonl",
    "load_trace_jsonl",
]
