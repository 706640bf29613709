"""In-process span tracing.

A **span** is one timed region of work -- a pipeline stage, a solver
call, an engine batch -- with a name, wall + CPU durations, free-form
attributes, and links: every span carries a ``trace_id`` (the tree it
belongs to) and a ``parent_id`` (the span that was open when it
started). ``span("pipeline.window", windows=3)`` opens one as a context
manager; nesting follows the call stack via a :mod:`contextvars`
variable, so instrumented layers compose without passing handles.
Finished spans go to the process's :class:`TraceCollector`, which
:func:`arm_tracing` installs and :func:`collect_spans` reads.

Two properties are load-bearing:

* **Zero-cost when disabled.** :func:`span` with tracing off returns a
  shared no-op object after one module-global read; no allocation, no
  clock reads, no lock.
* **Determinism safety.** Span and trace ids come from
  :func:`os.urandom` (never the seeded RNGs the synthesis math uses),
  spans never feed fingerprints or report payloads, and nothing here
  writes to stdout -- the chaos suite's byte-identical guarantees hold
  with tracing armed.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

__all__ = [
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
]


def _new_id(nbytes: int) -> str:
    # os.urandom: ids must never touch the seeded RNGs the synthesis
    # math depends on, or tracing would perturb deterministic runs.
    return os.urandom(nbytes).hex()


@dataclass
class Span:
    """One finished (or in-flight) timed region of work."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    t_start: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    pid: int = 0
    tid: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "t_start": self.t_start,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.parent_id is not None:
            payload["parent_id"] = self.parent_id
        if self.attrs:
            payload["attrs"] = self.attrs
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Span":
        return cls(
            name=str(payload["name"]),
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_id=payload.get("parent_id"),
            t_start=float(payload.get("t_start", 0.0)),
            wall_s=float(payload.get("wall_s", 0.0)),
            cpu_s=float(payload.get("cpu_s", 0.0)),
            pid=int(payload.get("pid", 0)),
            tid=int(payload.get("tid", 0)),
            attrs=dict(payload.get("attrs", {})),
        )


class TraceCollector:
    """Bounded, thread-safe sink for finished spans."""

    def __init__(self, maxlen: int = 50_000) -> None:
        self._lock = threading.Lock()
        self._spans: "deque[Span]" = deque(maxlen=maxlen)
        self.dropped = 0

    def add(self, span_: Span) -> None:
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self.dropped += 1
            self._spans.append(span_)

    def spans(self, trace_id: Optional[str] = None) -> List[Span]:
        with self._lock:
            items = list(self._spans)
        if trace_id is not None:
            items = [s for s in items if s.trace_id == trace_id]
        return items

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0


# The armed collector, or ``None`` when tracing is off.
_COLLECTOR: Optional[TraceCollector] = None
_STATE_LOCK = threading.Lock()

_CURRENT: "contextvars.ContextVar[Optional[_LiveSpan]]" = (
    contextvars.ContextVar("repro_obs_current_span", default=None)
)


def arm_tracing(maxlen: int = 50_000) -> TraceCollector:
    """Enable span collection in this process; returns the collector."""
    global _COLLECTOR
    with _STATE_LOCK:
        _COLLECTOR = TraceCollector(maxlen=maxlen)
        return _COLLECTOR


def disarm_tracing() -> None:
    """Disable tracing and drop the collector."""
    global _COLLECTOR
    with _STATE_LOCK:
        _COLLECTOR = None


def tracing_enabled() -> bool:
    """Whether spans are being recorded in this process."""
    return _COLLECTOR is not None


class _NullSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    trace_id = ""
    span_id = ""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def set_attr(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """An open span: clock bookkeeping plus the parent link."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attrs",
        "_collector",
        "_token",
        "_t_start",
        "_t0_wall",
        "_t0_cpu",
    )

    def __init__(
        self,
        collector: TraceCollector,
        name: str,
        attrs: Dict[str, Any],
        new_trace: bool = False,
    ) -> None:
        self._collector = collector
        self.name = name
        self.attrs = attrs
        parent = None if new_trace else _CURRENT.get()
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        else:
            self.trace_id = _new_id(16)
            self.parent_id = None
        self.span_id = _new_id(8)
        self._token = None
        self._t_start = 0.0
        self._t0_wall = 0.0
        self._t0_cpu = 0.0

    def __enter__(self) -> "_LiveSpan":
        self._token = _CURRENT.set(self)
        self._t_start = time.time()
        self._t0_wall = time.perf_counter()
        self._t0_cpu = time.process_time()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        wall = time.perf_counter() - self._t0_wall
        cpu = time.process_time() - self._t0_cpu
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._collector.add(
            Span(
                name=self.name,
                trace_id=self.trace_id,
                span_id=self.span_id,
                parent_id=self.parent_id,
                t_start=self._t_start,
                wall_s=wall,
                cpu_s=cpu,
                pid=os.getpid(),
                tid=threading.get_ident(),
                attrs=self.attrs,
            )
        )

    def set_attr(self, **attrs: Any) -> None:
        self.attrs.update(attrs)


def span(name: str, **attrs: Any):
    """Open a span named ``name`` as a context manager.

    Nested use parents to the innermost open span on this thread; with
    tracing disabled this returns a shared no-op object (the fast path
    is one module-global read).
    """
    collector = _COLLECTOR
    if collector is None:
        return _NULL_SPAN
    return _LiveSpan(collector, name, attrs)


def root_span(name: str, **attrs: Any):
    """Open a span that starts a *new* trace (a job root), ignoring any
    span currently open on this thread."""
    collector = _COLLECTOR
    if collector is None:
        return _NULL_SPAN
    return _LiveSpan(collector, name, attrs, new_trace=True)


def current_span():
    """The innermost open span on this thread (``None`` when outside
    any span or tracing is disabled)."""
    if _COLLECTOR is None:
        return None
    return _CURRENT.get()


def collect_spans(trace_id: Optional[str] = None) -> List[Span]:
    """Every recorded span, optionally filtered to one trace, sorted by
    start time."""
    collector = _COLLECTOR
    if collector is None:
        return []
    spans = collector.spans(trace_id)
    spans.sort(key=lambda s: (s.t_start, s.span_id))
    return spans


def clear_spans() -> None:
    """Drop every collected span (test isolation)."""
    collector = _COLLECTOR
    if collector is not None:
        collector.clear()
