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

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.traffic.events": ("TraceRecord", "TransactionKind"),
        "repro.traffic.trace": ("TrafficTrace",),
        "repro.traffic.kernels": ("CompiledActivity", "TraceAnalytics"),
        "repro.traffic.windows": ("WindowedTraffic",),
        "repro.traffic.overlap": ("PairwiseOverlap",),
        "repro.traffic.criticality": ("CriticalityReport", "analyze_criticality"),
        "repro.traffic.qos": ("phase_aligned_boundaries",),
        "repro.traffic.synthetic": (
            "SyntheticTrafficConfig",
            "generate_synthetic_trace",
        ),
        "repro.traffic.profiles": (
            "HotspotTrafficConfig",
            "PipelineTrafficConfig",
            "PoissonTrafficConfig",
            "generate_hotspot_trace",
            "generate_pipeline_trace",
            "generate_poisson_trace",
            "scaled_config",
            "thin_trace",
        ),
        "repro.traffic.io": ("load_trace_jsonl", "save_trace_jsonl"),
    },
)

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
