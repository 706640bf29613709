"""``repro.obs`` -- the platform's unified observability layer.

One package holds every process-global tally; ``--profile``,
``SOLVE_COUNTER`` and ``/v1/stats`` read their numbers as growth of
its registry between two cuts (:func:`repro.obs.metrics.growth`):

* :mod:`repro.obs.metrics` -- a thread-safe registry of counters,
  gauges and histograms with label sets, rendered as Prometheus text
  exposition for ``GET /metrics``.
* :mod:`repro.obs.tracing` -- spans with trace/span ids, wall + CPU
  durations and parent links, collected in process so one job's work
  forms one trace tree.
* :mod:`repro.obs.export` -- spans as JSONL, Chrome ``trace_event``
  JSON (Perfetto-loadable) or an indented terminal table.
* :mod:`repro.obs.jsonlog` -- structured JSON-lines logging for
  ``repro serve --log-json``.

The package imports only the standard library, sitting below every
other ``repro`` subpackage so any layer can instrument itself without
import cycles.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.obs.export": (
            "format_span_tree",
            "load_jsonl",
            "to_chrome_trace",
            "write_chrome_trace",
            "write_jsonl",
        ),
        "repro.obs.jsonlog": ("JsonLogger",),
        "repro.obs.metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "REGISTRY",
            "counter",
            "gauge",
            "histogram",
            "render_prometheus",
        ),
        "repro.obs.tracing": (
            "Span",
            "TraceCollector",
            "arm_tracing",
            "clear_spans",
            "collect_spans",
            "current_span",
            "disarm_tracing",
            "root_span",
            "span",
            "tracing_enabled",
        ),
    },
)

__all__ = [
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "render_prometheus",
    # tracing
    "Span",
    "TraceCollector",
    "arm_tracing",
    "disarm_tracing",
    "tracing_enabled",
    "span",
    "root_span",
    "current_span",
    "collect_spans",
    "clear_spans",
    # export
    "write_jsonl",
    "load_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "format_span_tree",
    # logging
    "JsonLogger",
]
