"""Unified metrics registry: counters, gauges, histograms with labels.

One process-global :data:`REGISTRY` absorbs every ad-hoc tally the
platform grew -- solver invocation counts, pipeline stage hit/miss
tables, cache statistics, engine degradation events, fault-injection
tallies, server dispositions and HTTP latencies -- behind a single
thread-safe API, and renders them as `Prometheus text exposition
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ for
the daemon's ``GET /metrics`` endpoint.

Design constraints, in order:

* **Thread safety** -- one registry lock serializes child creation and
  :meth:`MetricsRegistry.snapshot`; each child value update takes the
  same lock, so a snapshot is a *consistent* cut across every metric
  (the ``/v1/stats`` endpoint reads tallies through it instead of
  field-by-field racing the writers).
* **Cheap hot path** -- recording into an already-created child is one
  lock acquisition and one float add; call sites that record per
  solver *node* batch locally and record once per solve.
* **Determinism safety** -- metrics are observability-only: nothing
  here feeds content fingerprints, cache keys or report payloads, so
  arming the registry can never perturb a byte-identical guarantee.

Counters are monotonic for the life of the process (Prometheus
semantics). Views that want "since X" numbers (``SOLVE_COUNTER``,
``--profile``, ``/v1/stats``) keep no tallies of their own: they take a
:meth:`~MetricsRegistry.snapshot` at X and report :func:`growth` since.
:meth:`MetricsRegistry.reset` exists for test isolation only.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "growth",
    "histogram",
    "render_prometheus",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)
"""Histogram bucket upper bounds in seconds (latency-oriented)."""


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_suffix(
    labelnames: Sequence[str], labelvalues: Sequence[str], extra: str = ""
) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _Metric:
    """Base of one named metric family (all children share it)."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        lock: threading.RLock,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._children: Dict[Tuple[str, ...], Any] = {}

    def _child_key(self, labels: Mapping[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def collect(self) -> Dict[Tuple[str, ...], Any]:
        """A consistent copy of every child's value."""
        with self._lock:
            return dict(self._children)

    def _reset(self) -> None:
        with self._lock:
            self._children.clear()


class Counter(_Metric):
    """A monotonically increasing count, optionally labelled."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        key = self._child_key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = self._child_key(labels)
        with self._lock:
            return float(self._children.get(key, 0.0))

    def total(self) -> float:
        """Sum across every label combination."""
        with self._lock:
            return float(sum(self._children.values()))

    def _render(self) -> List[str]:
        lines = []
        for key, value in sorted(self.collect().items()):
            suffix = _label_suffix(self.labelnames, key)
            lines.append(f"{self.name}{suffix} {_format_value(value)}")
        if not lines and not self.labelnames:
            lines.append(f"{self.name} 0")
        return lines


class Gauge(_Metric):
    """A value that can go up and down; supports callback children.

    ``set_function`` registers a callable sampled at collection time --
    the queue-depth/active-jobs pattern, where the authoritative value
    already lives in another structure and mirroring every transition
    would be both racy and redundant.
    """

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = self._child_key(labels)
        with self._lock:
            self._children[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._child_key(labels)
        with self._lock:
            current = self._children.get(key, 0.0)
            if callable(current):
                raise ValueError(
                    f"gauge child {self.name}{key} is callback-backed"
                )
            self._children[key] = current + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def set_function(self, fn, **labels: Any) -> None:
        """Back this child with ``fn`` (``None`` unregisters it)."""
        key = self._child_key(labels)
        with self._lock:
            if fn is None:
                self._children.pop(key, None)
            else:
                self._children[key] = fn

    def value(self, **labels: Any) -> float:
        key = self._child_key(labels)
        with self._lock:
            current = self._children.get(key, 0.0)
        return float(current() if callable(current) else current)

    def _render(self) -> List[str]:
        lines = []
        for key, value in sorted(self.collect().items()):
            if callable(value):
                try:
                    value = float(value())
                except Exception:  # noqa: BLE001 - sampling must not 500
                    continue
            suffix = _label_suffix(self.labelnames, key)
            lines.append(f"{self.name}{suffix} {_format_value(value)}")
        if not lines and not self.labelnames:
            lines.append(f"{self.name} 0")
        return lines


class _HistogramChild:
    """Bucket counts + sum/count for one label combination."""

    __slots__ = ("counts", "total", "count")

    def __init__(self, num_buckets: int) -> None:
        self.counts = [0] * num_buckets
        self.total = 0.0
        self.count = 0


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus classic semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        lock: threading.RLock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labelnames, lock)
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be sorted and unique")
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        self.buckets = bounds

    def observe(self, value: float, **labels: Any) -> None:
        key = self._child_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = _HistogramChild(len(self.buckets))
                self._children[key] = child
            child.total += float(value)
            child.count += 1
            # Per-bucket (non-cumulative) storage; _render cumsums.
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    child.counts[index] += 1
                    break

    def child_stats(self, **labels: Any) -> Tuple[int, float]:
        """(count, sum) for one label combination (0, 0.0 when unseen)."""
        key = self._child_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                return 0, 0.0
            return child.count, child.total

    def _render(self) -> List[str]:
        lines = []
        for key, child in sorted(self.collect().items()):
            cumulative = 0
            for bound, count in zip(self.buckets, child.counts):
                cumulative += count
                le = _label_suffix(
                    self.labelnames, key, f'le="{_format_value(bound)}"'
                )
                lines.append(f"{self.name}_bucket{le} {cumulative}")
            inf = _label_suffix(self.labelnames, key, 'le="+Inf"')
            lines.append(f"{self.name}_bucket{inf} {child.count}")
            suffix = _label_suffix(self.labelnames, key)
            lines.append(
                f"{self.name}_sum{suffix} {_format_value(child.total)}"
            )
            lines.append(f"{self.name}_count{suffix} {child.count}")
        return lines


class MetricsRegistry:
    """Thread-safe, name-addressed collection of metric families.

    ``counter``/``gauge``/``histogram`` get-or-create: instrumented
    modules declare their metrics at import or call time, and repeated
    declarations with matching type and labels return the same family
    (mismatches raise -- they are wiring bugs, not data).
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: "Dict[str, _Metric]" = {}

    def _declare(self, cls, name, help_text, labelnames, **kwargs) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(
                    labelnames
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.labelnames}"
                    )
                return existing
            metric = cls(name, help_text, labelnames, self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._declare(Counter, name, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._declare(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._declare(
            Histogram, name, help_text, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """One consistent cut across every registered metric.

        Counters/gauges map label tuples to floats; histograms map them
        to ``{"count": n, "sum": s}``. Taken under the registry lock, so
        no writer can interleave between two families -- this is the
        atomic view ``/v1/stats`` reads tallies through.
        """
        with self._lock:
            out: Dict[str, Dict[str, Any]] = {}
            for name, metric in self._metrics.items():
                samples: Dict[Tuple[str, ...], Any] = {}
                for key, value in metric._children.items():
                    if isinstance(value, _HistogramChild):
                        samples[key] = {"count": value.count, "sum": value.total}
                    elif callable(value):
                        try:
                            samples[key] = float(value())
                        except Exception:  # noqa: BLE001
                            continue
                    else:
                        samples[key] = float(value)
                out[name] = {
                    "kind": metric.kind,
                    "labelnames": metric.labelnames,
                    "samples": samples,
                }
            return out

    def render_prometheus(self) -> str:
        """The registry as Prometheus text exposition format 0.0.4."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: List[str] = []
        for name, metric in metrics:
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric._render())
        return "\n".join(lines) + "\n"

    def reset(self, prefix: Optional[str] = None) -> None:
        """Zero every child (optionally only families named with
        ``prefix``). Test isolation only -- production counters are
        monotonic for the life of the process."""
        with self._lock:
            for name, metric in self._metrics.items():
                if prefix is None or name.startswith(prefix):
                    metric._reset()


REGISTRY = MetricsRegistry()
"""The process-global registry every instrumented layer reports into."""


def counter(
    name: str, help_text: str = "", labelnames: Sequence[str] = ()
) -> Counter:
    """Get-or-create a counter on the global :data:`REGISTRY`."""
    return REGISTRY.counter(name, help_text, labelnames)


def gauge(
    name: str, help_text: str = "", labelnames: Sequence[str] = ()
) -> Gauge:
    """Get-or-create a gauge on the global :data:`REGISTRY`."""
    return REGISTRY.gauge(name, help_text, labelnames)


def histogram(
    name: str,
    help_text: str = "",
    labelnames: Sequence[str] = (),
    buckets: Sequence[float] = DEFAULT_BUCKETS,
) -> Histogram:
    """Get-or-create a histogram on the global :data:`REGISTRY`."""
    return REGISTRY.histogram(name, help_text, labelnames, buckets=buckets)


def render_prometheus() -> str:
    """Text exposition of the global :data:`REGISTRY` (``GET /metrics``)."""
    return REGISTRY.render_prometheus()


def growth(
    before: Mapping[str, Any], after: Mapping[str, Any], family: str
) -> Dict[Tuple[str, ...], Any]:
    """``{labels: delta}`` of ``family`` between two
    :meth:`MetricsRegistry.snapshot` cuts.

    Counter deltas are numbers; histogram deltas are ``(count, sum)``.
    Children that did not grow are left out.
    """
    prior = before.get(family, {}).get("samples", {})
    grown: Dict[Tuple[str, ...], Any] = {}
    for key, value in after.get(family, {}).get("samples", {}).items():
        if isinstance(value, dict):  # histogram child
            old = prior.get(key, {"count": 0, "sum": 0.0})
            if value["count"] > old["count"]:
                grown[key] = (
                    value["count"] - old["count"],
                    value["sum"] - old["sum"],
                )
        elif value > prior.get(key, 0):
            grown[key] = value - prior.get(key, 0)
    return grown
