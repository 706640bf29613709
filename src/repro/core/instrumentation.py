"""Lightweight instrumentation of the solver entry points.

The execution engine's cache (:mod:`repro.exec`) promises that a warm
cache performs *zero* solves. That guarantee is only testable if the
solver layer is observable, so the two solver entry points --
feasibility probes in :mod:`repro.core.search` and binding optimization
in :mod:`repro.core.binding` -- report every invocation here.

The counter is process-local: work fanned out to pool workers is counted
in the workers, not the parent. That is exactly what cache tests want --
a warm-cache run in the parent must record zero local solves. Every
recording is also mirrored into the :mod:`repro.obs` registry
(``repro_solves_total{kind=...}``), which is process-global and
monotonic -- the ``/metrics`` view -- while the counter itself stays the
resettable per-run view.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from repro.obs import metrics as _metrics
from repro.profiling import PHASE_TIMER, PhaseTimer, track_phase

__all__ = [
    "SolveCounter",
    "SOLVE_COUNTER",
    "record_solve",
    # Phase wall-clock accounting lives in :mod:`repro.profiling` (below
    # the traffic layer, to avoid import cycles) and is re-exported here
    # alongside the solver counter it mirrors.
    "PhaseTimer",
    "PHASE_TIMER",
    "track_phase",
]

_SOLVES_TOTAL = _metrics.counter(
    "repro_solves_total",
    "Solver invocations by kind (feasibility probe / binding MILP) "
    "and solver backend.",
    ("kind", "backend"),
)


class SolveCounter:
    """Counts solver invocations; supports observer callbacks.

    Attributes
    ----------
    feasibility:
        Number of feasibility probes (MILP1 / assignment feasibility).
    binding:
        Number of binding optimizations (MILP2).

    Updates are lock-protected and :meth:`snapshot` is the atomic read:
    the server's stats endpoint consumes that instead of reading the
    fields one by one while solver threads are writing them.
    """

    def __init__(self) -> None:
        self.feasibility = 0
        self.binding = 0
        self.by_backend: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._observers: List[Callable[[str], None]] = []

    @property
    def total(self) -> int:
        """All solver invocations since the last :meth:`reset`."""
        with self._lock:
            return self.feasibility + self.binding

    def reset(self) -> None:
        """Zero both counters (observers stay registered; the registry
        mirror is monotonic and is deliberately left alone)."""
        with self._lock:
            self.feasibility = 0
            self.binding = 0
            self.by_backend.clear()

    def snapshot(self) -> Dict[str, object]:
        """Both counters (plus the per-backend split) in one read."""
        with self._lock:
            return {
                "feasibility": self.feasibility,
                "binding": self.binding,
                "total": self.feasibility + self.binding,
                "by_backend": dict(self.by_backend),
            }

    def subscribe(self, observer: Callable[[str], None]) -> None:
        """Call ``observer(kind)`` on every recorded solve."""
        self._observers.append(observer)

    def unsubscribe(self, observer: Callable[[str], None]) -> None:
        """Remove a previously subscribed observer."""
        self._observers.remove(observer)

    def record(self, kind: str, backend: str = "assignment") -> None:
        """Record one solver invocation of ``kind`` on ``backend``.

        ``backend`` names the solver that ran: ``"assignment"`` (the
        specialized solver, default) or ``"highs"`` (the literal MILP).
        """
        if kind not in ("feasibility", "binding"):
            raise ValueError(f"unknown solve kind {kind!r}")
        with self._lock:
            if kind == "feasibility":
                self.feasibility += 1
            else:
                self.binding += 1
            self.by_backend[backend] = self.by_backend.get(backend, 0) + 1
        _SOLVES_TOTAL.inc(kind=kind, backend=backend)
        # Observers run outside the lock: they may be arbitrary user
        # code (progress feeds) and must not serialize solver threads.
        for observer in self._observers:
            observer(kind)


SOLVE_COUNTER = SolveCounter()
"""The process-global counter the solver entry points report to."""


def record_solve(
    kind: str,
    backend: str = "assignment",
    counter: Optional[SolveCounter] = None,
) -> None:
    """Report one solver invocation (module-level convenience hook)."""
    (counter or SOLVE_COUNTER).record(kind, backend=backend)
