"""Per-phase wall-clock accounting, recorded into :mod:`repro.obs`.

The synthesis flow decomposes into four phases whose relative cost the
``--profile`` CLI flag reports: **windowing** (building ``comm`` /
``critical_comm``), **overlap** (the pairwise ``wo`` tensor and
criticality analysis), **conflicts** (the pre-processing rules) and
**solve** (configuration search plus optimal binding).

:func:`track_phase` opens a ``phase.<name>`` span (so phase timings
appear in trace trees next to pipeline-stage spans) and observes the
block's wall-clock seconds into the ``repro_phase_seconds`` histogram.
The registry is the only store: ``--profile`` and ``GET /metrics`` both
read that histogram, the former as its growth over one command.

The module imports nothing above :mod:`repro.obs` (stdlib-only), so
traffic-, core- and exec-layer code can all report phases without
import cycles.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing

__all__ = ["PHASES", "track_phase"]

PHASES = ("windowing", "overlap", "conflicts", "solve")
"""Canonical phase order for reports (unknown phases sort after these)."""

_PHASE_SECONDS = _metrics.histogram(
    "repro_phase_seconds",
    "Wall-clock seconds spent per synthesis phase.",
    ("phase",),
)


@contextmanager
def track_phase(phase: str) -> Iterator[None]:
    """Time a ``with`` block and attribute it to ``phase``."""
    begin = time.perf_counter()
    with _tracing.span(f"phase.{phase}"):
        try:
            yield
        finally:
            _PHASE_SECONDS.observe(time.perf_counter() - begin, phase=phase)
