"""Simulation kernel: the DES's platform model without generators.

:class:`~repro.platform.soc.SoC` runs a workload on the general
discrete-event engine: one generator per initiator, and an ``Event``,
a ``Request`` and several heap entries per bus acquisition. Every
production simulation -- program-driven trace collection and
validation as well as trace-driven latency replay -- runs here instead,
on flat integer state:

* one state machine per initiator: a phase and the in-flight
  transaction's timestamps,
* per-resource pending lists and holder slots for the IT buses, the TI
  buses and the target ports, arbitrated as
  :mod:`repro.platform.arbiter` does,
* one heap of due cycles, each holding its events in scheduling order:
  the ``(cycle, seq)`` order :meth:`Engine.schedule_at
  <repro.sim.engine.Engine.schedule_at>` gives the DES's events.
  Zero-delay events -- the DES's ``Resource._dispatch`` calls and grant
  wake-ups -- join the cycle being run, after every event already due
  in it, exactly where the DES numbers them. A counter numbers every
  event as the DES would, so the event count is the DES's too.

Every access runs the same phases (IT grant, IT release, service, TI
grant, TI release) from per-access columns. The two workload kinds
differ only in the initiator's boundary step, where it takes its next
operation:

* a trace-driven workload (:func:`replay_trace`) reads it from columns
  flattened from the trace before the run,
* a program-driven workload (:func:`run_programs`) pulls it lazily from
  the initiator's program iterator and interprets it as
  ``SoC._interpret`` does -- compute delays, accesses, and lock and
  barrier polling through the DES's own synchronization managers and
  per-initiator jitter streams -- appending each access to the columns
  as it issues.

The kernel mirrors the DES event for event, so same-cycle arbitration
ties resolve identically: per-transaction timestamps and streams,
``finished``, ``simulated_cycles``, bus utilization and the event count
all equal a :class:`~repro.platform.soc.SoC` run of the same programs
(``tests/platform/test_replay_kernel.py`` and
``tests/platform/test_program_kernel.py`` hold it to that, with the DES
as the oracle). The DES stays in the package as that reference model.

Latency replay reads only latency columns, so the kernel returns those
and builds the columnar trace only when a caller asks for
:attr:`SimulationResult.trace <repro.platform.soc.SimulationResult.trace>`:
one matrix from its completed rows and per-access identities, with no
:class:`~repro.traffic.events.TraceRecord` objects.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Optional, Sequence

from repro.errors import (
    ApplicationError,
    ConfigurationError,
    DeadlockError,
    SimulationError,
    TraceError,
)
from repro.platform.adapters import IDENTITY_ADAPTER
from repro.platform.arbiter import make_arbiter
from repro.platform.fabric import validate_binding
from repro.platform.initiator import (
    Barrier,
    Compute,
    Lock,
    Operation,
    Read,
    Unlock,
    Write,
)
from repro.platform.soc import (
    SIM_CYCLES,
    SIM_EVENTS,
    SIMULATION_COUNTER,
    SimulationResult,
    SoCConfig,
    _BarrierManager,
    _LockManager,
    validate_platform_shape,
)
from repro.traffic.events import TransactionKind
from repro.traffic.trace import COLUMNS, KINDS, TrafficTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.drivers import TraceDrivenInitiator, WorkloadDriver

__all__ = ["replay_trace", "run_programs"]

# Arbitration policies as the kernel runs them. Requests carry priority
# 0 and a resource's pending list is in (arrival, sequence) order, so
# "priority" grants exactly as "fifo" does.
_FIFO, _FIXED, _ROUND_ROBIN = 0, 1, 2
_POLICY_CODES = {
    "fifo": _FIFO,
    "priority": _FIFO,
    "fixed-priority": _FIXED,
    "round-robin": _ROUND_ROBIN,
}
_WRAP = 1 << 20  # round-robin: owners at/below the last grant go last
_READ = TransactionKind.READ
_WRITE = TransactionKind.WRITE
_END = object()  # a program's end, as ``next`` reports it

# Initiator phases: where its program resumes on the next wake-up.
(
    _BOUNDARY,  # between accesses: take the next operation
    _ISSUE,  # issue the current access (a trace's pacing gap is over)
    _IT_GRANT,  # granted the IT bus
    _IT_RELEASE,  # IT hold over: release, request the target port
    _SERVICE_START,  # granted the target port
    _SERVICE_END,  # wait states over: release, request the TI bus
    _TI_GRANT,  # granted the TI bus
    _TI_RELEASE,  # TI hold over: release, record, next operation
    _DONE,
) = range(9)

# What a program-driven initiator waits on at its boundary step.
(
    _RUNNING,  # nothing: pull the next operation
    _LOCK_TEST,  # its lock test read completed: try to take the lock
    _LOCK_POLL,  # lock poll delay over: read the lock again
    _BARRIER_TEST,  # its barrier write or read completed: opened yet?
    _BARRIER_POLL,  # barrier poll delay over: read the barrier again
) = range(5)


class _Access(NamedTuple):
    """The identity of a program-driven access, as its trace row carries
    it."""

    initiator: int
    target: int
    kind: TransactionKind
    burst: int
    stream: str


def replay_trace(
    driver: TraceDrivenInitiator,
    it_binding: Sequence[int],
    ti_binding: Sequence[int],
    max_cycles: int,
) -> SimulationResult:
    """Replay a trace-driven workload on the given crossbar bindings.

    Same inputs, checks, errors and result as building a
    :class:`~repro.platform.soc.SoC` from ``driver.build_programs()``
    and ``driver.start_cycles()`` and running it for ``max_cycles``.
    """
    return _simulate(
        driver.platform,
        it_binding,
        ti_binding,
        max_cycles,
        driver.start_cycles(),
        trace=driver,
    )


def run_programs(
    driver: WorkloadDriver,
    it_binding: Sequence[int],
    ti_binding: Sequence[int],
    max_cycles: int,
) -> SimulationResult:
    """Run a program-driven workload on the given crossbar bindings.

    Same inputs, checks, errors and result as building a
    :class:`~repro.platform.soc.SoC` from ``driver.build_programs()``
    and ``driver.start_cycles()`` and running it for ``max_cycles``.
    """
    return _simulate(
        driver.platform,
        it_binding,
        ti_binding,
        max_cycles,
        driver.start_cycles(),
        programs=driver.build_programs(),
    )


def _holds(
    config: SoCConfig, initiator: int, target: int, kind: TransactionKind, burst: int
) -> tuple:
    """An access's IT and TI bus holds: arbitration plus occupancy."""
    timing = config.timing
    target_adapter = config.target_adapters.get(target, IDENTITY_ADAPTER)
    initiator_adapter = config.initiator_adapters.get(initiator, IDENTITY_ADAPTER)
    request = timing.request_occupancy(kind, burst, target_adapter)
    response = timing.response_occupancy(kind, burst, initiator_adapter)
    return timing.arbitration_cycles + request, timing.arbitration_cycles + response


def _describe_access(
    config: SoCConfig, it_resource: List[int], key: tuple, accesses: List[_Access]
) -> tuple:
    """A program-driven access's column values, checked as ``SoC._access``
    checks it; its identity joins ``accesses``, and the row ends with
    its index there."""
    initiator, target, is_read, burst, critical, stream = key
    target_config = config.targets[target]
    if burst < 1:
        raise SimulationError(f"burst must be >= 1, got {burst}")
    if target < 0:
        raise TraceError("initiator and target indices must be non-negative")
    kind = _READ if is_read else _WRITE
    hold_it, hold_ti = _holds(config, initiator, target, kind, burst)
    accesses.append(_Access(initiator, target, kind, burst, stream))
    return (
        target,
        it_resource[target],
        hold_it,
        hold_ti,
        critical or target_config.critical,
        len(accesses) - 1,
    )


def _simulate(
    config: SoCConfig,
    it_binding: Sequence[int],
    ti_binding: Sequence[int],
    max_cycles: int,
    start_cycles: Optional[Sequence[int]],
    trace: Optional[TraceDrivenInitiator] = None,
    programs: Optional[Sequence[Iterable[Operation]]] = None,
) -> SimulationResult:
    """The one event loop: a trace-driven run when ``trace`` is given,
    a program-driven one over ``programs`` otherwise."""
    validate_platform_shape(config, it_binding, ti_binding)
    n = config.num_initiators
    if programs is not None and len(programs) != n:
        raise ConfigurationError(f"{len(programs)} programs for {n} initiators")
    if start_cycles is not None:
        if len(start_cycles) != n:
            raise ConfigurationError(
                f"{len(start_cycles)} start offsets for {n} initiators"
            )
        if any(start < 0 for start in start_cycles):
            raise ConfigurationError("start_cycles must be non-negative")
    it_buses = validate_binding(it_binding, "initiator->target")
    ti_buses = validate_binding(ti_binding, "target->initiator")
    make_arbiter(config.arbitration)  # rejects unknown policies
    if max_cycles < 1:
        raise ConfigurationError(f"max_cycles must be >= 1, got {max_cycles}")
    SIMULATION_COUNTER.record()
    until = int(max_cycles)

    targets = config.targets
    names = config.initiator_names
    starts = list(start_cycles) if start_cycles is not None else [0] * n

    # Resources: IT buses, then TI buses, then target ports. Event code
    # ``c < n`` wakes initiator ``c``; ``c >= n`` dispatches resource
    # ``c - n``.
    ti_base = it_buses
    port_base = it_buses + ti_buses
    resources = port_base + len(targets)
    policy = _POLICY_CODES[config.arbitration]
    policies = [policy] * port_base + [_FIFO] * len(targets)
    it_resource = [int(bus) for bus in it_binding]
    ti_resource = [ti_base + int(bus) for bus in ti_binding]
    service = [target.service_cycles for target in targets]

    # Per-access columns: the resources an access uses, its two bus
    # holds, its criticality and where its identity lives (``origin``:
    # the replayed trace's row, or the program access's index in
    # ``accesses``). A trace fills them before the run, with the pacing
    # gap its replay program waits before each access; a program
    # appends each access as it issues.
    origin: List[int] = []
    rec_target: List[int] = []
    rec_it: List[int] = []
    rec_hold_it: List[int] = []
    rec_hold_ti: List[int] = []
    rec_gap: List[int] = []
    rec_critical: List[bool] = []
    end = [0] * n
    current = [0] * n
    if trace is not None:
        pace = trace.pace
        source = trace.trace
        issue_at = source.column("issue").tolist()
        complete_at = source.column("complete").tolist()
        target_of = source.column("target").tolist()
        kind_of = source.column("kind").tolist()
        burst_of = source.column("burst").tolist()
        critical_of = (source.column("critical") == 1).tolist()
        hold_memo: Dict[tuple, tuple] = {}
        # Each initiator's rows in trace order, which is issue order.
        for initiator, rows in enumerate(trace.records_per_initiator()):
            # The boundary step advances before it reads.
            current[initiator] = len(origin) - 1
            clock = starts[initiator]
            for row in rows:
                gap = 0
                issued = issue_at[row]
                if pace and issued > clock:
                    gap = issued - clock
                    clock = issued
                if complete_at[row] > clock:
                    clock = complete_at[row]
                target = target_of[row]
                key = (initiator, target, kind_of[row], burst_of[row])
                holds = hold_memo.get(key)
                if holds is None:
                    holds = hold_memo[key] = _holds(
                        config, initiator, target, KINDS[key[2]], key[3]
                    )
                origin.append(row)
                rec_target.append(target)
                rec_it.append(it_resource[target])
                rec_hold_it.append(holds[0])
                rec_hold_ti.append(holds[1])
                rec_gap.append(gap)
                rec_critical.append(critical_of[row] or targets[target].critical)
            end[initiator] = len(origin)
    else:
        sources = [iter(program) for program in programs]
        jitter = [random.Random((config.seed << 16) ^ index) for index in range(n)]
        locks = _LockManager()
        barriers = _BarrierManager()
        waiting_on = [_RUNNING] * n
        sync: List[tuple] = [()] * n  # the lock or barrier waited on, its stream
        generation = [0] * n
        access_memo: Dict[tuple, tuple] = {}
        accesses: List[_Access] = []

    phase = [_BOUNDARY] * n
    issue = [0] * n
    it_grant = [0] * n
    it_release = [0] * n
    service_start = [0] * n
    service_end = [0] * n
    ti_grant = [0] * n
    held = [False] * resources
    granted_at = [0] * resources
    busy = [0] * resources
    pending: List[List[int]] = [[] for _ in range(resources)]
    last_owner = [-1] * resources

    completed: List[tuple] = []
    latencies: List[int] = []
    critical: List[bool] = []
    finished = 0

    # The event queue: a heap of due cycles, each with its wake-ups in
    # scheduling order -- the DES's ``(cycle, seq)`` order. Process
    # start is one wake-up per initiator, in index order, at its start
    # cycle (``spawn`` in ``SoC.run``). ``seq`` counts every event the
    # DES would schedule.
    due: Dict[int, List[int]] = {}
    for index in range(n):
        due.setdefault(starts[index], []).append(index)
    cycles = list(due)
    heapify(cycles)
    seq = n
    while cycles:
        now = cycles[0]
        if now > until:
            break
        heappop(cycles)
        # Zero-delay events append to ``batch`` while it is walked: each
        # is numbered after everything already due this cycle.
        batch = due.pop(now)
        for code in batch:
            if code >= n:
                # Resource dispatch: grant the free resource, if anyone
                # waits, and wake the winner in this cycle.
                resource = code - n
                if held[resource]:
                    continue
                waiting = pending[resource]
                if not waiting:
                    continue
                rule = policies[resource]
                # A lone request wins at once under fixed priority too;
                # round-robin must still record its owner below.
                if rule == _FIFO or (rule == _FIXED and len(waiting) == 1):
                    chosen = waiting.pop(0)
                else:
                    # Bus owners: the initiator on the IT side, the
                    # responding target on the TI side. The first
                    # request with the best key wins, as in ``min``.
                    if resource < ti_base:
                        owners = waiting
                    else:
                        owners = [rec_target[current[p]] for p in waiting]
                    if rule == _FIXED:
                        slot = owners.index(min(owners))
                    else:
                        last = last_owner[resource]
                        distances = [
                            owner - last + (0 if owner > last else _WRAP)
                            for owner in owners
                        ]
                        slot = distances.index(min(distances))
                        last_owner[resource] = owners[slot]
                    chosen = waiting.pop(slot)
                held[resource] = True
                granted_at[resource] = now
                batch.append(chosen)
                seq += 1
                continue

            # Initiator wake-up: run its program to the next wait. A
            # compute delay, pacing gap, poll delay, bus hold or wait
            # state ends in a wake-up ``delay`` cycles on; a resource
            # request waits for the grant's wake-up.
            p = code
            state = phase[p]
            delay = -1
            while True:
                if state == _BOUNDARY:
                    if trace is not None:
                        # Trace: the next record, after its pacing gap.
                        index = current[p] + 1
                        if index == end[p]:
                            phase[p] = _DONE
                            finished += 1
                            break
                        current[p] = index
                        delay = rec_gap[index]
                        if delay:
                            phase[p] = _ISSUE
                            break
                        state = _ISSUE
                        continue
                    # Program: go on with a lock or barrier wait, else
                    # pull the next operation. An access lands in ``key``,
                    # the semaphore traffic as ``SoC._acquire_lock``,
                    # ``_wait_barrier`` and ``_interpret`` issue it.
                    wait = waiting_on[p]
                    if wait == _LOCK_TEST:
                        op, stream = sync[p]
                        if not locks.try_acquire((op.semaphore, op.lock_id), p):
                            waiting_on[p] = _LOCK_POLL
                            delay = op.poll_cycles + jitter[p].randrange(4)
                            phase[p] = _BOUNDARY
                            break
                        waiting_on[p] = _RUNNING
                        key = (p, op.semaphore, False, 1, False, stream)
                    elif wait == _LOCK_POLL or wait == _BARRIER_POLL:
                        op, stream = sync[p]
                        test = _LOCK_TEST if wait == _LOCK_POLL else _BARRIER_TEST
                        waiting_on[p] = test
                        key = (p, op.semaphore, True, 1, False, stream)
                    else:
                        if wait == _BARRIER_TEST:
                            op = sync[p][0]
                            barrier = (op.semaphore, op.barrier_id)
                            if not barriers.released(barrier, generation[p]):
                                waiting_on[p] = _BARRIER_POLL
                                delay = op.poll_cycles + jitter[p].randrange(8)
                                phase[p] = _BOUNDARY
                                break
                            waiting_on[p] = _RUNNING
                        op = next(sources[p], _END)
                        if op is _END:
                            phase[p] = _DONE
                            finished += 1
                            break
                        if isinstance(op, Compute):
                            if op.cycles:
                                delay = op.cycles
                                phase[p] = _BOUNDARY
                                break
                            continue
                        if isinstance(op, (Read, Write)):
                            read = isinstance(op, Read)
                            key = (p, op.target, read, op.burst, op.critical, op.stream)
                        elif isinstance(op, Lock):
                            stream = f"lock{op.lock_id}"
                            sync[p] = (op, stream)
                            waiting_on[p] = _LOCK_TEST
                            key = (p, op.semaphore, True, 1, False, stream)
                        elif isinstance(op, Unlock):
                            locks.release((op.semaphore, op.lock_id), p)
                            stream = f"unlock{op.lock_id}"
                            key = (p, op.semaphore, False, 1, False, stream)
                        elif isinstance(op, Barrier):
                            barrier = (op.semaphore, op.barrier_id)
                            generation[p] = barriers.arrive(barrier, op.participants)
                            stream = f"barrier{op.barrier_id}"
                            sync[p] = (op, stream)
                            waiting_on[p] = _BARRIER_TEST
                            key = (p, op.semaphore, False, 1, False, stream)
                        else:
                            raise ApplicationError(
                                f"initiator {p} produced unsupported operation {op!r}"
                            )
                    row = access_memo.get(key)
                    if row is None:
                        row = access_memo[key] = _describe_access(
                            config, it_resource, key, accesses
                        )
                    current[p] = len(origin)
                    rec_target.append(row[0])
                    rec_it.append(row[1])
                    rec_hold_it.append(row[2])
                    rec_hold_ti.append(row[3])
                    rec_critical.append(row[4])
                    origin.append(row[5])
                    state = _ISSUE
                elif state == _ISSUE:
                    issue[p] = now
                    resource = rec_it[current[p]]
                    pending[resource].append(p)
                    batch.append(n + resource)
                    seq += 1
                    phase[p] = _IT_GRANT
                    delay = -1
                    break
                elif state == _IT_GRANT:
                    it_grant[p] = now
                    delay = rec_hold_it[current[p]]
                    phase[p] = _IT_RELEASE
                    break
                elif state == _IT_RELEASE:
                    it_release[p] = now
                    index = current[p]
                    resource = rec_it[index]
                    held[resource] = False
                    busy[resource] += now - granted_at[resource]
                    batch.append(n + resource)
                    resource = port_base + rec_target[index]
                    pending[resource].append(p)
                    batch.append(n + resource)
                    seq += 2
                    phase[p] = _SERVICE_START
                    break
                elif state == _SERVICE_START:
                    service_start[p] = now
                    delay = service[rec_target[current[p]]]
                    if delay:
                        phase[p] = _SERVICE_END
                        break
                    state = _SERVICE_END
                elif state == _SERVICE_END:
                    service_end[p] = now
                    resource = port_base + rec_target[current[p]]
                    held[resource] = False
                    batch.append(n + resource)
                    resource = ti_resource[p]
                    pending[resource].append(p)
                    batch.append(n + resource)
                    seq += 2
                    phase[p] = _TI_GRANT
                    delay = -1
                    break
                elif state == _TI_GRANT:
                    ti_grant[p] = now
                    delay = rec_hold_ti[current[p]]
                    phase[p] = _TI_RELEASE
                    break
                else:  # _TI_RELEASE
                    resource = ti_resource[p]
                    held[resource] = False
                    busy[resource] += now - granted_at[resource]
                    batch.append(n + resource)
                    seq += 1
                    index = current[p]
                    row = (
                        index,
                        issue[p],
                        it_grant[p],
                        it_release[p],
                        service_start[p],
                        service_end[p],
                        ti_grant[p],
                        now,
                    )
                    completed.append(row)
                    latencies.append(now - issue[p])
                    critical.append(rec_critical[index])
                    state = _BOUNDARY
            if delay > 0:
                seq += 1
                wake = now + delay
                queued = due.get(wake)
                if queued is None:
                    due[wake] = [p]
                    heappush(cycles, wake)
                else:
                    queued.append(p)
            elif delay == 0:
                seq += 1
                batch.append(p)

    total_cycles = max(until, 1)
    SIM_EVENTS.inc(seq, kernel="kernel")
    SIM_CYCLES.inc(total_cycles, kernel="kernel")
    if finished < n and not cycles:
        stuck = [names[p] for p in range(n) if phase[p] != _DONE]
        raise DeadlockError(
            f"simulation deadlocked at cycle {until}; stuck initiators: {stuck}"
        )

    def build_trace() -> TrafficTrace:
        import numpy as np

        target_names = [target.name for target in targets]
        done = np.array(completed, dtype=np.int64).reshape(-1, 8)
        origins = np.array(origin, dtype=np.int64)[done[:, 0]]
        if trace is not None:
            # A replayed access is its source row.
            source = trace.trace
            identity = source.columns[origins]
            streams = list(source.streams)
            stream_ids = source.column("stream")[origins]
        else:
            table = [
                (
                    access.initiator,
                    access.target,
                    KINDS.index(access.kind),
                    access.burst,
                )
                for access in accesses
            ]
            identity = np.array(table, dtype=np.int64).reshape(-1, 4)[origins]
            streams = [access.stream for access in accesses]
            stream_ids = origins
        stream_ids = _default_streams(
            identity, stream_ids, streams, names, target_names
        )
        matrix = np.empty((done.shape[0], len(COLUMNS)), dtype=np.int64)
        matrix[:, :4] = identity[:, :4]
        matrix[:, 4:10] = done[:, 1:7]  # issue .. ti_grant
        matrix[:, 10] = done[:, 7]  # ti_release: the response ends the access
        matrix[:, 11] = done[:, 7]
        matrix[:, 12] = critical
        matrix[:, 13] = stream_ids
        return TrafficTrace.from_columns(
            matrix,
            streams,
            num_initiators=n,
            num_targets=len(targets),
            total_cycles=total_cycles,
            target_names=target_names,
            initiator_names=list(names),
        )

    return SimulationResult(
        simulated_cycles=total_cycles,
        finished=finished == n,
        it_bus_count=it_buses,
        ti_bus_count=ti_buses,
        it_utilization=[busy[bus] / float(total_cycles) for bus in range(it_buses)],
        ti_utilization=[
            busy[ti_base + bus] / float(total_cycles) for bus in range(ti_buses)
        ],
        latencies=latencies,
        critical=critical,
        events=seq,
        build_trace=build_trace,
    )


def _default_streams(identity, stream_ids, streams, initiator_names, target_names):
    """``stream_ids`` with every unnamed stream named after its pair, as
    ``initiator->target``; new names join ``streams``."""
    blank = [index for index, name in enumerate(streams) if not name]
    if not blank:
        return stream_ids
    import numpy as np

    is_blank = np.zeros(len(streams), dtype=bool)
    is_blank[blank] = True
    unnamed = np.flatnonzero(is_blank[stream_ids])
    if not unnamed.size:
        return stream_ids
    named: Dict[tuple, int] = {}
    pairs = zip(identity[unnamed, 0].tolist(), identity[unnamed, 1].tolist())
    fresh = []
    for pair in pairs:
        stream = named.get(pair)
        if stream is None:
            stream = named[pair] = len(streams)
            initiator, target = pair
            streams.append(f"{initiator_names[initiator]}->{target_names[target]}")
        fresh.append(stream)
    stream_ids = stream_ids.copy()
    stream_ids[unnamed] = fresh
    return stream_ids
