"""Experiment drivers, comparison tables and text plotting.

These helpers regenerate the paper's tables and figures:

* :mod:`~repro.analysis.compare` -- evaluate competing crossbar designs
  on an application and tabulate latency/size (Tables 1-2, Fig. 4),
* :mod:`~repro.analysis.sweep` -- parameter sweeps over window size,
  overlap threshold and burst size (Figs. 5-6),
* :mod:`~repro.analysis.textplot` -- ASCII charts for a plotting-free
  environment,
* :mod:`~repro.analysis.report` -- aligned text tables.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.analysis.compare": ("DesignEvaluation", "compare_designs"),
        "repro.analysis.pareto": (
            "DesignPoint",
            "explore_design_space",
            "pareto_front",
        ),
        "repro.analysis.report": ("format_synthesis_result", "format_table"),
        "repro.analysis.sweep": (
            "SweepPoint",
            "acceptable_window_search",
            "overlap_threshold_sweep",
            "window_size_sweep",
        ),
        "repro.analysis.textplot": ("bar_chart", "xy_plot"),
    },
)

__all__ = [
    "DesignEvaluation",
    "compare_designs",
    "DesignPoint",
    "explore_design_space",
    "pareto_front",
    "format_table",
    "format_synthesis_result",
    "SweepPoint",
    "window_size_sweep",
    "overlap_threshold_sweep",
    "acceptable_window_search",
    "bar_chart",
    "xy_plot",
]
