"""Trace-replay kernel: the DES's trace-driven path without generators.

:class:`~repro.platform.soc.SoC` runs every workload on the general
discrete-event engine: one generator per initiator, and an ``Event``,
a ``Request`` and several heap entries per bus acquisition.
Trace-driven replay (:class:`~repro.platform.drivers.TraceDrivenInitiator`)
needs none of that generality -- every initiator runs the same fixed
access pattern -- so this kernel replays it on flat integer state:

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

The kernel mirrors the DES event for event, so same-cycle arbitration
ties resolve identically: per-transaction timestamps, ``finished``,
``simulated_cycles``, bus utilization and the event count all equal a
:class:`~repro.platform.soc.SoC` run of the driver's programs
(``tests/platform/test_replay_kernel.py`` holds it to that, with the
DES as the oracle). The DES stays the reference model and the only path
for program-driven workloads.

Latency replay reads only latency columns, so the kernel returns those
and builds :class:`~repro.traffic.events.TraceRecord` objects only when
a caller asks for :attr:`SimulationResult.trace
<repro.platform.soc.SimulationResult.trace>`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.errors import ConfigurationError, DeadlockError
from repro.platform.adapters import IDENTITY_ADAPTER
from repro.platform.arbiter import make_arbiter
from repro.platform.fabric import validate_binding
from repro.platform.soc import (
    SIM_EVENTS,
    SIMULATION_COUNTER,
    SimulationResult,
    validate_platform_shape,
)
from repro.traffic.events import TraceRecord, TransactionKind
from repro.traffic.trace import TrafficTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.drivers import TraceDrivenInitiator

__all__ = ["replay_trace"]

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

# Initiator phases: where its replay program resumes on the next wake-up.
(
    _BOUNDARY,  # between records: finish, wait out the pacing gap, or issue
    _ISSUE,  # pacing gap over: issue the current record
    _IT_GRANT,  # granted the IT bus
    _IT_RELEASE,  # IT hold over: release, request the target port
    _SERVICE_START,  # granted the target port
    _SERVICE_END,  # wait states over: release, request the TI bus
    _TI_GRANT,  # granted the TI bus
    _TI_RELEASE,  # TI hold over: release, record, next record
    _DONE,
) = range(9)


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
    config = driver.platform
    validate_platform_shape(config, it_binding, ti_binding)
    it_buses = validate_binding(it_binding, "initiator->target")
    ti_buses = validate_binding(ti_binding, "target->initiator")
    make_arbiter(config.arbitration)  # rejects unknown policies
    if max_cycles < 1:
        raise ConfigurationError(f"max_cycles must be >= 1, got {max_cycles}")
    SIMULATION_COUNTER.record()
    until = int(max_cycles)

    n = config.num_initiators
    targets = config.targets
    timing = config.timing
    arbitration = timing.arbitration_cycles
    names = config.initiator_names
    pace = driver.pace
    starts = driver.start_cycles() or [0] * n

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

    # Flatten the replay programs (``trace_replay_program``) into
    # per-record columns: the resources a record uses, its two bus
    # holds and the pacing gap the program waits before issuing it.
    records: List[TraceRecord] = []
    rec_target: List[int] = []
    rec_it: List[int] = []
    rec_hold_it: List[int] = []
    rec_hold_ti: List[int] = []
    rec_gap: List[int] = []
    rec_critical: List[bool] = []
    first = [0] * n
    end = [0] * n
    hold_memo: Dict[tuple, tuple] = {}
    for initiator, own in enumerate(driver.records_per_initiator()):
        own.sort(key=lambda record: record.issue)
        first[initiator] = len(records)
        clock = starts[initiator]
        initiator_adapter = config.initiator_adapters.get(initiator, IDENTITY_ADAPTER)
        for record in own:
            gap = 0
            if pace and record.issue > clock:
                gap = record.issue - clock
                clock = record.issue
            if record.complete > clock:
                clock = record.complete
            kind, burst, target = record.kind, record.burst, record.target
            key = (initiator, target, kind is _READ, burst)
            holds = hold_memo.get(key)
            if holds is None:
                adapter = config.target_adapters.get(target, IDENTITY_ADAPTER)
                request = timing.request_occupancy(kind, burst, adapter)
                response = timing.response_occupancy(kind, burst, initiator_adapter)
                holds = hold_memo[key] = (arbitration + request, arbitration + response)
            records.append(record)
            rec_target.append(target)
            rec_it.append(it_resource[target])
            rec_hold_it.append(holds[0])
            rec_hold_ti.append(holds[1])
            rec_gap.append(gap)
            rec_critical.append(record.critical or targets[target].critical)
        end[initiator] = len(records)

    phase = [_BOUNDARY] * n
    current = first[:]
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
                if rule == _FIFO:
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
            # bus hold or wait state ends in a wake-up ``delay`` cycles
            # on; a resource request waits for the grant's wake-up.
            p = code
            state = phase[p]
            delay = -1
            while True:
                if state == _BOUNDARY:
                    index = current[p]
                    if index == end[p]:
                        phase[p] = _DONE
                        finished += 1
                        break
                    delay = rec_gap[index]
                    if delay:
                        phase[p] = _ISSUE
                        break
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
                    current[p] = index + 1
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

    SIM_EVENTS.inc(seq, kernel="replay")
    if finished < n and not cycles:
        stuck = [names[p] for p in range(n) if phase[p] != _DONE]
        raise DeadlockError(
            f"simulation deadlocked at cycle {until}; stuck initiators: {stuck}"
        )
    total_cycles = max(until, 1)

    def build_trace() -> TrafficTrace:
        target_names = [target.name for target in targets]
        replayed = []
        for index, *stamps, complete in completed:
            record = records[index]
            stream = record.stream
            if not stream:
                stream = f"{names[record.initiator]}->{target_names[record.target]}"
            replayed.append(
                TraceRecord(
                    record.initiator,
                    record.target,
                    record.kind,
                    record.burst,
                    *stamps,
                    complete,  # ti_release: the response ends the access
                    complete,
                    critical=rec_critical[index],
                    stream=stream,
                )
            )
        return TrafficTrace(
            replayed,
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
