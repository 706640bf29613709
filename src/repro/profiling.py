"""Per-phase wall-clock accounting -- now a shim over :mod:`repro.obs`.

The synthesis flow decomposes into four phases whose relative cost the
``--profile`` CLI flag reports: **windowing** (building ``comm`` /
``critical_comm``), **overlap** (the pairwise ``wo`` tensor and
criticality analysis), **conflicts** (the pre-processing rules) and
**solve** (configuration search plus optimal binding).

Historically this module was its own bookkeeping; it is now a thin view
over the unified observability layer. :meth:`PhaseTimer.track` opens a
``phase.<name>`` span (so phase timings appear in trace trees next to
pipeline-stage spans) and the process-global :data:`PHASE_TIMER`
mirrors every recording into the ``repro_phase_seconds`` histogram, so
``--profile`` and ``GET /metrics`` can no longer disagree. The local
totals/counts survive as the *resettable* view -- registry counters are
monotonic for the process lifetime, while ``--profile`` wants
per-invocation numbers.

The module still imports nothing above :mod:`repro.obs` (stdlib-only),
so traffic-, core- and exec-layer code can all report phases without
import cycles. Like ``SOLVE_COUNTER``, accounting is process-local.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing

__all__ = ["PhaseTimer", "PHASE_TIMER", "track_phase"]

PHASES = ("windowing", "overlap", "conflicts", "solve")
"""Canonical phase order for reports (unknown phases sort after these)."""

_PHASE_SECONDS = _metrics.histogram(
    "repro_phase_seconds",
    "Wall-clock seconds spent per synthesis phase.",
    ("phase",),
)


class PhaseTimer:
    """Accumulates wall-clock seconds and entry counts per phase.

    ``mirror_registry`` (the global timer only) forwards every
    recording into ``repro_phase_seconds``; private timers stay local
    so scoped measurements never double-count the registry.
    """

    def __init__(self, mirror_registry: bool = False) -> None:
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._mirror = mirror_registry

    @property
    def totals(self) -> Dict[str, float]:
        """Accumulated seconds per phase (a copy)."""
        with self._lock:
            return dict(self._totals)

    @property
    def counts(self) -> Dict[str, int]:
        """Number of tracked entries per phase (a copy)."""
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        """Zero the local accumulators (the registry mirror is
        monotonic and is deliberately left alone)."""
        with self._lock:
            self._totals.clear()
            self._counts.clear()

    def add(self, phase: str, seconds: float) -> None:
        """Record ``seconds`` of work attributed to ``phase``."""
        with self._lock:
            self._totals[phase] = self._totals.get(phase, 0.0) + seconds
            self._counts[phase] = self._counts.get(phase, 0) + 1
        if self._mirror:
            _PHASE_SECONDS.observe(seconds, phase=phase)

    @contextmanager
    def track(self, phase: str) -> Iterator[None]:
        """Time a ``with`` block and attribute it to ``phase``.

        Also opens a ``phase.<name>`` span, so with tracing armed the
        phase shows up in the job's trace tree.
        """
        begin = time.perf_counter()
        with _tracing.span(f"phase.{phase}"):
            try:
                yield
            finally:
                self.add(phase, time.perf_counter() - begin)

    def format_report(self, total_elapsed: Optional[float] = None) -> str:
        """Plain-text per-phase breakdown (for the ``--profile`` flag).

        ``total_elapsed`` adds an ``other`` row covering the time spent
        outside every tracked phase (simulation, I/O, cache look-ups).
        """
        with self._lock:
            totals = dict(self._totals)
            counts = dict(self._counts)
        rows = []
        tracked = 0.0
        order = {name: rank for rank, name in enumerate(PHASES)}
        for phase in sorted(
            totals, key=lambda name: (order.get(name, len(order)), name)
        ):
            seconds = totals[phase]
            tracked += seconds
            rows.append((phase, seconds, counts.get(phase, 0)))
        if total_elapsed is not None:
            rows.append(("other", max(0.0, total_elapsed - tracked), 0))
        denominator = total_elapsed if total_elapsed else tracked
        lines = ["phase breakdown (wall-clock):"]
        if not rows:
            lines.append("  (no phases recorded)")
        for phase, seconds, count in rows:
            share = seconds / denominator if denominator else 0.0
            calls = f"{count:>5}x" if count else "      "
            lines.append(
                f"  {phase:<10} {seconds:>9.4f} s  {share:>6.1%}  {calls}"
            )
        if total_elapsed is not None:
            lines.append(f"  {'total':<10} {total_elapsed:>9.4f} s")
        return "\n".join(lines)


PHASE_TIMER = PhaseTimer(mirror_registry=True)
"""The process-global timer the pipeline phases report to."""


def track_phase(phase: str, timer: Optional[PhaseTimer] = None):
    """Context manager timing one pipeline phase (module-level hook)."""
    return (timer or PHASE_TIMER).track(phase)
