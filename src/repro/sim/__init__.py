"""Discrete-event simulation kernel.

This subpackage provides the minimal, dependency-free event-driven
simulation machinery on which the STbus platform model
(:mod:`repro.platform`) is built:

* :class:`~repro.sim.engine.Engine` -- the event queue and simulation clock.
* :class:`~repro.sim.engine.Event` -- one-shot completion events.
* :class:`~repro.sim.process.Process` -- generator-based cooperative
  processes (``yield`` a delay, an event, or another process).
* :class:`~repro.sim.resource.Resource` -- an arbitrated, single- or
  multi-server resource with pluggable grant policies.

The kernel is deliberately small: cycle-accurate behaviour lives in the
platform models, which schedule events at cycle granularity.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.sim.engine": ("Engine", "Event"),
        "repro.sim.process": ("Process", "spawn"),
        "repro.sim.resource": ("Request", "Resource", "fifo_policy", "priority_policy"),
    },
)

__all__ = [
    "Engine",
    "Event",
    "Process",
    "spawn",
    "Resource",
    "Request",
    "fifo_policy",
    "priority_policy",
]
