"""STbus MPSoC platform model (MPARM/SystemC stand-in).

An event-driven, cycle-resolved model of an STbus-interconnected MPSoC:

* :mod:`~repro.platform.transaction` -- transactions and the bus timing
  model (request/service/response phase costs),
* :mod:`~repro.platform.arbiter` -- per-bus arbitration policies,
* :mod:`~repro.platform.bus` -- a single STbus bus (grant, occupancy),
* :mod:`~repro.platform.fabric` -- shared-bus / partial- / full-crossbar
  fabrics built from target->bus and initiator->bus bindings,
* :mod:`~repro.platform.target` -- memory, semaphore and interrupt-device
  targets,
* :mod:`~repro.platform.initiator` -- programmable initiators and the
  workload operation vocabulary (compute, read, write, lock, barrier),
* :mod:`~repro.platform.drivers` -- pluggable workload drivers: the
  program-driven initiator path and trace-driven replay
  (:class:`~repro.platform.drivers.TraceDrivenInitiator`),
* :mod:`~repro.platform.kernel` -- the simulation kernel every workload
  runs on: no generators, event for event equal to the DES,
* :mod:`~repro.platform.adapters` -- frequency/data-width adapters,
* :mod:`~repro.platform.soc` -- SoC assembly and the general DES, the
  kernel's reference model, plus the simulation result and counters,
* :mod:`~repro.platform.metrics` -- latency and utilization statistics.

The fabric follows the paper's STbus structure: *two* crossbars per
design, one for initiator->target requests (targets bound to buses, all
initiators reach every bus) and one for target->initiator responses
(initiators bound to buses). A shared-bus design is the special case of
one bus on each side; a full crossbar has one bus per target / initiator.
"""

from repro.platform.transaction import TimingModel, Transaction
from repro.platform.arbiter import make_arbiter, ARBITRATION_POLICIES
from repro.platform.bus import Bus
from repro.platform.fabric import (
    Fabric,
    full_crossbar_binding,
    shared_bus_binding,
    validate_binding,
)
from repro.platform.target import TargetConfig, TargetKind
from repro.platform.initiator import (
    Barrier,
    Compute,
    Lock,
    Read,
    Unlock,
    Write,
    trace_replay_program,
)
from repro.platform.soc import (
    SIMULATION_COUNTER,
    SimulationCounter,
    SimulationResult,
    SoC,
    SoCConfig,
)
from repro.platform.drivers import (
    ProgramDriver,
    TraceDrivenInitiator,
    WorkloadDriver,
    platform_spec,
    replay_platform,
    simulate_workload,
)
from repro.platform.metrics import LatencyStats, summarize_latencies

__all__ = [
    "TimingModel",
    "Transaction",
    "make_arbiter",
    "ARBITRATION_POLICIES",
    "Bus",
    "Fabric",
    "full_crossbar_binding",
    "shared_bus_binding",
    "validate_binding",
    "TargetConfig",
    "TargetKind",
    "Compute",
    "Read",
    "Write",
    "Lock",
    "Unlock",
    "Barrier",
    "trace_replay_program",
    "SoC",
    "SoCConfig",
    "SimulationResult",
    "SimulationCounter",
    "SIMULATION_COUNTER",
    "WorkloadDriver",
    "ProgramDriver",
    "TraceDrivenInitiator",
    "replay_platform",
    "platform_spec",
    "simulate_workload",
    "LatencyStats",
    "summarize_latencies",
]
