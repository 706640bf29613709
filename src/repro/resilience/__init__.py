"""repro.resilience -- deterministic fault injection.

:mod:`repro.resilience.faults` injects failures on purpose -- a seeded
:class:`FaultPlan` of named points (``cache.corrupt``, ``solver.slow``,
``io.transient``) whose decisions are pure functions of
``(seed, point, key)``, so chaos runs are reproducible and inherited by
subprocesses and the serve daemon via the ``REPRO_FAULTS`` environment
variable. The cache absorbs those failures where they land: a corrupt
entry is a miss, a failed write is retried and then skipped.

The chaos test suite (``tests/resilience/``) closes the loop: under an
installed plan, synthesis reports must stay byte-identical to a
fault-free run.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.resilience.faults": (
            "FAULT_POINTS",
            "FAULTS_ENV_VAR",
            "FaultPlan",
            "FaultRule",
            "InjectedFault",
            "active_plan",
            "clear_plan",
            "fault_summary",
            "install_from_spec",
            "install_plan",
            "maybe_io_error",
            "should_corrupt_cache",
            "should_inject",
            "solver_slowdown",
        ),
    },
)

__all__ = [
    "FAULT_POINTS",
    "FAULTS_ENV_VAR",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "active_plan",
    "clear_plan",
    "fault_summary",
    "install_from_spec",
    "install_plan",
    "maybe_io_error",
    "should_corrupt_cache",
    "should_inject",
    "solver_slowdown",
]
