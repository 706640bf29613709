"""Lightweight instrumentation of the solver entry points.

The execution engine's cache (:mod:`repro.exec`) promises that a warm
cache performs *zero* solves. That guarantee is only testable if the
solver layer is observable, so the two solver entry points --
feasibility probes in :mod:`repro.core.search` and binding optimization
in :mod:`repro.core.binding` -- report every invocation here.

Every invocation is counted once, in the process-global
``repro_solves_total{kind=...}`` registry counter (the
``/metrics`` view). :data:`SOLVE_COUNTER` stores nothing of its own: it
is the resettable view cache tests want, reading the counter's growth
since its last :meth:`SolveCounter.reset`.

The assignment DFS also reports the nodes each solve explored, once per
solve, into ``repro_dfs_nodes_total{mode=...}`` (``feasibility`` /
``optimize``) through :func:`record_dfs_nodes`, and
:func:`record_bind_reuse` counts binds answered from a stored answer.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.obs import metrics as _metrics

__all__ = [
    "SolveCounter",
    "SOLVE_COUNTER",
    "record_solve",
    "record_dfs_nodes",
    "record_bind_reuse",
]

_SOLVES_TOTAL = _metrics.counter(
    "repro_solves_total",
    "Solver invocations by kind (feasibility probe / binding).",
    ("kind",),
)

_DFS_NODES_TOTAL = _metrics.counter(
    "repro_dfs_nodes_total",
    "Assignment DFS nodes by mode (feasibility / optimize), added once "
    "per solve.",
    ("mode",),
)

_BIND_REUSE_TOTAL = _metrics.counter(
    "repro_bind_reuse_total",
    "Bind stages answered through a bind reuse record, by tier "
    "(same_conflicts: a stored answer for identical conflict pairs; "
    "lower_bound: an Eq. 11 search stopped at a stored optimum).",
    ("tier",),
)


class SolveCounter:
    """Solver invocations since the last :meth:`reset`, as a registry delta.

    :meth:`reset` takes a baseline cut of ``repro_solves_total``; every
    read returns the family's growth since then. :meth:`snapshot` is the
    atomic read -- one consistent cut of the family -- so its counts
    always agree with each other and with their total.
    """

    def __init__(self) -> None:
        self._baseline: Dict[str, Any] = {}

    def reset(self) -> None:
        """Count from now on (the registry counter itself is monotonic
        and is left alone)."""
        self._baseline = _metrics.REGISTRY.snapshot()

    def snapshot(self) -> Dict[str, int]:
        """Both counts and their total, in one read."""
        kinds = {"feasibility": 0, "binding": 0}
        grown = _metrics.growth(
            self._baseline, _metrics.REGISTRY.snapshot(), _SOLVES_TOTAL.name
        )
        for (kind,), value in grown.items():
            kinds[kind] += int(value)
        return {**kinds, "total": kinds["feasibility"] + kinds["binding"]}

    @property
    def feasibility(self) -> int:
        """Feasibility probes (MILP1)."""
        return self.snapshot()["feasibility"]

    @property
    def binding(self) -> int:
        """Binding optimizations (MILP2)."""
        return self.snapshot()["binding"]

    @property
    def total(self) -> int:
        """All solver invocations."""
        return self.snapshot()["total"]


SOLVE_COUNTER = SolveCounter()
"""The process-global view cache tests and ``/v1/stats`` read."""


def record_solve(kind: str) -> None:
    """Report one solver invocation of ``kind``."""
    if kind not in ("feasibility", "binding"):
        raise ValueError(f"unknown solve kind {kind!r}")
    _SOLVES_TOTAL.inc(kind=kind)


def record_dfs_nodes(optimize: bool, nodes: int) -> None:
    """Add one assignment solve's ``nodes`` to ``repro_dfs_nodes_total``."""
    _DFS_NODES_TOTAL.inc(nodes, mode="optimize" if optimize else "feasibility")


def record_bind_reuse(tier: str) -> None:
    """Count one bind answered through a stored answer of ``tier``."""
    _BIND_REUSE_TOTAL.inc(tier=tier)
