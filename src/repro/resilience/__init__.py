"""repro.resilience -- deterministic fault injection + fault tolerance.

Two halves of one contract:

* :mod:`repro.resilience.faults` injects failures on purpose -- a
  seeded :class:`FaultPlan` of named points (``worker.crash``,
  ``cache.corrupt``, ``solver.slow``, ``io.transient``) whose
  decisions are pure functions of ``(seed, point, key)``, so chaos
  runs are reproducible and inherited by pool workers and the serve
  daemon via the ``REPRO_FAULTS`` environment variable.
* :mod:`repro.resilience.retry` bounds how the platform absorbs those
  failures -- :class:`RetryPolicy` (per-task retries, capped backoff,
  one pool rebuild) and :class:`EngineStats` (counted, surfaced
  degradation instead of silent fallbacks).

The chaos test suite (``tests/resilience/``) closes the loop: under an
installed plan, synthesis reports must stay byte-identical to a
fault-free run.
"""

from repro.resilience.faults import (
    FAULT_POINTS,
    FAULTS_ENV_VAR,
    FaultPlan,
    FaultRule,
    InjectedFault,
    active_plan,
    clear_plan,
    fault_summary,
    install_from_spec,
    install_plan,
    maybe_crash_worker,
    maybe_io_error,
    should_corrupt_cache,
    should_inject,
    solver_slowdown,
)
from repro.resilience.retry import EngineStats, RetryPolicy

__all__ = [
    "FAULT_POINTS",
    "FAULTS_ENV_VAR",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "EngineStats",
    "RetryPolicy",
    "active_plan",
    "clear_plan",
    "fault_summary",
    "install_from_spec",
    "install_plan",
    "maybe_crash_worker",
    "maybe_io_error",
    "should_corrupt_cache",
    "should_inject",
    "solver_slowdown",
]
