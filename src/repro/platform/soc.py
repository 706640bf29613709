"""SoC assembly and simulation driver.

A :class:`SoC` wires initiators, targets and the two STbus crossbars
together, interprets each initiator's program, stamps every transaction
phase, and returns a :class:`SimulationResult` holding the traffic trace
plus fabric statistics. It runs on the general discrete-event engine
(:mod:`repro.sim`) and is the reference model of the simulation kernel
(:mod:`repro.platform.kernel`), which runs every production simulation
event for event the same; only tests and benches run a :class:`SoC`.

Synchronization (locks, barriers) is split between *semantics* --
resolved deterministically by in-SoC managers -- and *traffic* -- the
polling reads and set/arrival writes that hit the semaphore target on
the bus, as the MPARM benchmarks do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ApplicationError, ConfigurationError, DeadlockError
from repro.obs import metrics as _metrics
from repro.platform.adapters import IDENTITY_ADAPTER, AdapterConfig
from repro.platform.fabric import Fabric
from repro.platform.initiator import (
    Barrier,
    Compute,
    Lock,
    Operation,
    Read,
    Unlock,
    Write,
)
from repro.platform.metrics import LatencyStats, summarize_latencies
from repro.platform.target import TargetConfig, TargetPort
from repro.platform.transaction import TimingModel, Transaction
from repro.sim.engine import Engine
from repro.sim.process import spawn
from repro.traffic.events import TraceRecord, TransactionKind
from repro.traffic.trace import TrafficTrace

__all__ = [
    "SoCConfig",
    "SoC",
    "SimulationResult",
    "SimulationCounter",
    "SIMULATION_COUNTER",
    "SIM_EVENTS",
    "SIM_CYCLES",
    "validate_platform_shape",
]


class SimulationCounter:
    """Counts fabric simulations (kernel runs and :meth:`SoC.run` calls).

    Process-local, like the solver counter in
    :mod:`repro.core.instrumentation`: replay caching promises that a
    warm rerun performs *zero* fabric simulations, and that guarantee is
    only testable if the simulation entry point is observable.
    """

    def __init__(self) -> None:
        self.runs = 0

    def record(self) -> None:
        self.runs += 1

    def reset(self) -> None:
        self.runs = 0


SIMULATION_COUNTER = SimulationCounter()
"""The process-global counter every simulation run reports to."""

SIM_EVENTS = _metrics.counter(
    "repro_sim_events_total",
    "Simulation events scheduled, by simulator: the simulation kernel "
    "(every production run) or the reference DES (SoC.run).",
    ("kernel",),
)

SIM_CYCLES = _metrics.counter(
    "repro_sim_cycles_total",
    "Cycles simulated (each run's cycle budget), by simulator: the "
    "simulation kernel or the reference DES (SoC.run).",
    ("kernel",),
)


@dataclass(frozen=True)
class SoCConfig:
    """Static platform description, independent of the crossbar chosen.

    Attributes
    ----------
    initiator_names:
        One name per initiator (e.g. ``["arm0", ..., "arm8"]``).
    targets:
        One :class:`~repro.platform.target.TargetConfig` per target.
    timing:
        Bus protocol phase costs.
    arbitration:
        Arbitration policy name used by every bus.
    initiator_adapters / target_adapters:
        Optional per-core interface adapters (sparse maps by index).
    seed:
        Seed for the small amount of polling jitter; fixed seed gives
        bit-identical reruns.
    """

    initiator_names: Sequence[str]
    targets: Sequence[TargetConfig]
    timing: TimingModel = TimingModel()
    arbitration: str = "fixed-priority"
    initiator_adapters: Dict[int, AdapterConfig] = field(default_factory=dict)
    target_adapters: Dict[int, AdapterConfig] = field(default_factory=dict)
    seed: int = 1

    @property
    def num_initiators(self) -> int:
        return len(self.initiator_names)

    @property
    def num_targets(self) -> int:
        return len(self.targets)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistencies."""
        if not self.initiator_names or not self.targets:
            raise ConfigurationError("SoC needs at least one initiator and target")
        for index in self.initiator_adapters:
            if not 0 <= index < self.num_initiators:
                raise ConfigurationError(f"adapter for unknown initiator {index}")
        for index in self.target_adapters:
            if not 0 <= index < self.num_targets:
                raise ConfigurationError(f"adapter for unknown target {index}")


class SimulationResult:
    """Outcome of one SoC simulation.

    ``latencies`` and ``critical`` are per-transaction columns in
    completion order: packet latency and the real-time flag. They are
    all latency replay reads, so the per-transaction
    :class:`~repro.traffic.trace.TrafficTrace` is built by
    ``build_trace`` only on first access of :attr:`trace`. ``events``
    counts the events the simulation scheduled, run or still queued at
    the cycle budget.

    ``simulated_cycles`` is always the cycle budget the run was given,
    not the cycle its last transaction completed: a run that finishes
    early still advances the clock to the budget, as a fixed-length
    hardware simulation does. Bus utilization is therefore measured
    against the budget, and a generous budget reads as a lightly used
    bus. The trace's ``total_cycles`` is the same budget.
    """

    def __init__(
        self,
        *,
        simulated_cycles: int,
        finished: bool,
        it_bus_count: int,
        ti_bus_count: int,
        it_utilization: List[float],
        ti_utilization: List[float],
        latencies: List[int],
        critical: List[bool],
        events: int,
        build_trace: Callable[[], TrafficTrace],
    ) -> None:
        self.simulated_cycles = simulated_cycles
        self.finished = finished
        self.it_bus_count = it_bus_count
        self.ti_bus_count = ti_bus_count
        self.it_utilization = it_utilization
        self.ti_utilization = ti_utilization
        self.latencies = latencies
        self.critical = critical
        self.events = events
        self._trace: Optional[TrafficTrace] = None
        self._build_trace = build_trace

    @property
    def trace(self) -> TrafficTrace:
        """Every simulated transaction as a trace record."""
        if self._trace is None:
            self._trace = self._build_trace()
        return self._trace

    @property
    def num_transactions(self) -> int:
        """Transactions that completed within the simulated period."""
        return len(self.latencies)

    @property
    def bus_count(self) -> int:
        """Total buses across both crossbars (paper's size metric)."""
        return self.it_bus_count + self.ti_bus_count

    def latency_stats(self, critical_only: bool = False) -> LatencyStats:
        """Packet latency statistics over the simulated transactions."""
        if not critical_only:
            return summarize_latencies(self.latencies)
        return summarize_latencies(
            [
                latency
                for latency, critical in zip(self.latencies, self.critical)
                if critical
            ]
        )


def validate_platform_shape(
    config: SoCConfig, it_binding: Sequence[int], ti_binding: Sequence[int]
) -> None:
    """Raise :class:`ConfigurationError` unless the bindings fit ``config``."""
    config.validate()
    if len(it_binding) != config.num_targets:
        raise ConfigurationError(
            f"it_binding covers {len(it_binding)} targets, platform has "
            f"{config.num_targets}"
        )
    if len(ti_binding) != config.num_initiators:
        raise ConfigurationError(
            f"ti_binding covers {len(ti_binding)} initiators, platform "
            f"has {config.num_initiators}"
        )


class SoC:
    """A simulatable MPSoC instance: platform + crossbar + programs.

    Parameters
    ----------
    config:
        Platform description (cores, timing, arbitration).
    it_binding / ti_binding:
        Crossbar shape: target -> IT bus and initiator -> TI bus.
    programs:
        One operation iterable per initiator. Any workload can drive the
        fabric this way -- live application programs or replayed trace
        records (see :mod:`repro.platform.drivers`).
    start_cycles:
        Optional per-initiator start offsets: initiator ``k`` enters the
        fabric at absolute cycle ``start_cycles[k]`` instead of cycle 0.
        Trace-driven replay uses this to schedule each initiator at its
        first recorded issue cycle.
    """

    def __init__(
        self,
        config: SoCConfig,
        it_binding: Sequence[int],
        ti_binding: Sequence[int],
        programs: Sequence[Iterable[Operation]],
        start_cycles: Optional[Sequence[int]] = None,
    ) -> None:
        validate_platform_shape(config, it_binding, ti_binding)
        if len(programs) != config.num_initiators:
            raise ConfigurationError(
                f"{len(programs)} programs for {config.num_initiators} initiators"
            )
        if start_cycles is not None:
            if len(start_cycles) != config.num_initiators:
                raise ConfigurationError(
                    f"{len(start_cycles)} start offsets for "
                    f"{config.num_initiators} initiators"
                )
            if any(start < 0 for start in start_cycles):
                raise ConfigurationError("start_cycles must be non-negative")
        self._start_cycles = list(start_cycles) if start_cycles is not None else None
        self.config = config
        self.engine = Engine()
        self.fabric = Fabric(
            self.engine, it_binding, ti_binding, config.timing, config.arbitration
        )
        self.ports = [TargetPort(self.engine, target) for target in config.targets]
        self._programs = list(programs)
        self._records: List[TraceRecord] = []
        self._locks = _LockManager()
        self._barriers = _BarrierManager()
        self._processes = []

    # -- simulation -----------------------------------------------------------

    def run(self, max_cycles: int) -> SimulationResult:
        """Simulate until all programs finish or ``max_cycles`` elapse."""
        if max_cycles < 1:
            raise ConfigurationError(f"max_cycles must be >= 1, got {max_cycles}")
        SIMULATION_COUNTER.record()
        self._processes = [
            spawn(
                self.engine,
                self._interpret(index, iter(program)),
                name=self.config.initiator_names[index],
                start_at=(
                    None if self._start_cycles is None
                    else self._start_cycles[index]
                ),
            )
            for index, program in enumerate(self._programs)
        ]
        self.engine.run(until=max_cycles)
        total_cycles = max(self.engine.now, 1)
        SIM_EVENTS.inc(self.engine.scheduled, kernel="des")
        SIM_CYCLES.inc(total_cycles, kernel="des")
        finished = all(process.finished for process in self._processes)
        if not finished and self.engine.pending_events == 0:
            stuck = [p.name for p in self._processes if not p.finished]
            raise DeadlockError(
                f"simulation deadlocked at cycle {self.engine.now}; "
                f"stuck initiators: {stuck}"
            )
        records = self._records

        def build_trace() -> TrafficTrace:
            return TrafficTrace(
                records,
                num_initiators=self.config.num_initiators,
                num_targets=self.config.num_targets,
                total_cycles=total_cycles,
                target_names=[target.name for target in self.config.targets],
                initiator_names=list(self.config.initiator_names),
            )

        return SimulationResult(
            simulated_cycles=total_cycles,
            finished=finished,
            it_bus_count=len(self.fabric.it_buses),
            ti_bus_count=len(self.fabric.ti_buses),
            it_utilization=[
                bus.utilization(total_cycles) for bus in self.fabric.it_buses
            ],
            ti_utilization=[
                bus.utilization(total_cycles) for bus in self.fabric.ti_buses
            ],
            latencies=[record.latency for record in records],
            critical=[record.critical for record in records],
            events=self.engine.scheduled,
            build_trace=build_trace,
        )

    # -- program interpretation -------------------------------------------------

    def _interpret(self, index: int, program):
        """Process generator: execute one initiator's operation stream."""
        jitter = random.Random((self.config.seed << 16) ^ index)
        for op in program:
            if isinstance(op, Compute):
                if op.cycles:
                    yield op.cycles
            elif isinstance(op, (Read, Write)):
                yield from self._access(index, op)
            elif isinstance(op, Lock):
                yield from self._acquire_lock(index, op, jitter)
            elif isinstance(op, Unlock):
                self._locks.release((op.semaphore, op.lock_id), index)
                yield from self._access(
                    index,
                    Write(op.semaphore, 1, stream=f"unlock{op.lock_id}"),
                )
            elif isinstance(op, Barrier):
                yield from self._wait_barrier(index, op, jitter)
            else:
                raise ApplicationError(
                    f"initiator {index} produced unsupported operation {op!r}"
                )

    def _acquire_lock(self, index: int, op: Lock, jitter: random.Random):
        key = (op.semaphore, op.lock_id)
        while True:
            yield from self._access(
                index, Read(op.semaphore, 1, stream=f"lock{op.lock_id}")
            )
            if self._locks.try_acquire(key, index):
                yield from self._access(
                    index, Write(op.semaphore, 1, stream=f"lock{op.lock_id}")
                )
                return
            yield op.poll_cycles + jitter.randrange(4)

    def _wait_barrier(self, index: int, op: Barrier, jitter: random.Random):
        key = (op.semaphore, op.barrier_id)
        generation = self._barriers.arrive(key, op.participants)
        yield from self._access(
            index, Write(op.semaphore, 1, stream=f"barrier{op.barrier_id}")
        )
        while not self._barriers.released(key, generation):
            yield op.poll_cycles + jitter.randrange(8)
            yield from self._access(
                index, Read(op.semaphore, 1, stream=f"barrier{op.barrier_id}")
            )

    def _access(self, index: int, op):
        """Drive one transaction through request, service and response."""
        kind = TransactionKind.READ if isinstance(op, Read) else TransactionKind.WRITE
        target_config = self.config.targets[op.target]
        transaction = Transaction(
            initiator=index,
            target=op.target,
            kind=kind,
            burst=op.burst,
            critical=op.critical or target_config.critical,
            stream=op.stream
            or f"{self.config.initiator_names[index]}->{target_config.name}",
        )
        timing = self.config.timing
        target_adapter = self.config.target_adapters.get(op.target, IDENTITY_ADAPTER)
        initiator_adapter = self.config.initiator_adapters.get(
            index, IDENTITY_ADAPTER
        )
        transaction.issue = self.engine.now

        request_bus = self.fabric.request_bus(transaction)
        grant, release = yield from request_bus.transfer(
            index, timing.request_occupancy(kind, op.burst, target_adapter)
        )
        transaction.it_grant, transaction.it_release = grant, release

        start, end = yield from self.ports[op.target].serve()
        transaction.service_start, transaction.service_end = start, end

        response_bus = self.fabric.response_bus(transaction)
        grant, release = yield from response_bus.transfer(
            op.target, timing.response_occupancy(kind, op.burst, initiator_adapter)
        )
        transaction.ti_grant, transaction.ti_release = grant, release
        transaction.complete = self.engine.now
        self._records.append(transaction.to_record())


class _LockManager:
    """Deterministic lock semantics, shared by the DES and the kernel
    (each simulates the lock traffic itself)."""

    def __init__(self) -> None:
        self._owners: Dict[Tuple[int, int], Optional[int]] = {}

    def try_acquire(self, key: Tuple[int, int], owner: int) -> bool:
        if self._owners.get(key) is None:
            self._owners[key] = owner
            return True
        return False

    def release(self, key: Tuple[int, int], owner: int) -> None:
        if self._owners.get(key) != owner:
            raise ApplicationError(
                f"initiator {owner} released lock {key} it does not hold"
            )
        self._owners[key] = None


class _BarrierManager:
    """Generation-counting barrier semantics."""

    def __init__(self) -> None:
        self._state: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def arrive(self, key: Tuple[int, int], participants: int) -> int:
        if participants < 1:
            raise ApplicationError(f"barrier {key} needs >= 1 participants")
        generation, arrived = self._state.get(key, (0, 0))
        arrived += 1
        if arrived >= participants:
            self._state[key] = (generation + 1, 0)
        else:
            self._state[key] = (generation, arrived)
        return generation

    def released(self, key: Tuple[int, int], generation: int) -> bool:
        current, _arrived = self._state.get(key, (0, 0))
        return current > generation
