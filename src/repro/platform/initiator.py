"""Initiator (master) programs and the workload operation vocabulary.

Initiators execute *programs*: plain Python iterables of operation
objects. The vocabulary mirrors what the MPARM benchmark kernels do at
the bus level:

* :class:`Compute` -- busy-loop for N cycles (no bus traffic),
* :class:`Read` / :class:`Write` -- a blocking burst access to a target,
* :class:`Lock` / :class:`Unlock` -- spin-lock acquisition through a
  semaphore target (polling reads, then a set write),
* :class:`Barrier` -- barrier synchronization through a semaphore target
  (an arrival write, then polling reads until the last core arrives).

Lock/barrier *semantics* (who wins, when a barrier opens) are arbitrated
by the SoC's synchronization managers so they are exact and deterministic,
while the polling traffic on the semaphore target is simulated faithfully
-- this reproduces the low-rate semaphore/interrupt streams the paper
describes alongside the heavy private-memory streams.

:func:`trace_replay_program` converts recorded traffic (e.g. a synthetic
trace) back into a program, so any trace can be re-simulated on any
candidate crossbar.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Sequence, Union

from repro.errors import ApplicationError
from repro.traffic.events import TransactionKind
from repro.traffic.trace import COLUMNS, KINDS, TrafficTrace

__all__ = [
    "Compute",
    "Read",
    "Write",
    "Lock",
    "Unlock",
    "Barrier",
    "Operation",
    "trace_replay_program",
]


@dataclass(frozen=True)
class Compute:
    """Execute for ``cycles`` without touching the interconnect."""

    cycles: int

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ApplicationError(f"compute cycles must be >= 0, got {self.cycles}")


@dataclass(frozen=True)
class Read:
    """Blocking burst read of ``burst`` words from ``target``."""

    target: int
    burst: int = 1
    critical: bool = False
    stream: str = ""


@dataclass(frozen=True)
class Write:
    """Blocking burst write of ``burst`` words to ``target``."""

    target: int
    burst: int = 1
    critical: bool = False
    stream: str = ""


@dataclass(frozen=True)
class Lock:
    """Acquire lock ``lock_id`` hosted on semaphore target ``semaphore``.

    The initiator issues a test read; if the manager reports the lock
    taken, it retries every ``poll_cycles``. On success it writes the lock
    word and proceeds.
    """

    semaphore: int
    lock_id: int = 0
    poll_cycles: int = 25


@dataclass(frozen=True)
class Unlock:
    """Release lock ``lock_id`` on semaphore target ``semaphore``."""

    semaphore: int
    lock_id: int = 0


@dataclass(frozen=True)
class Barrier:
    """Synchronize ``participants`` initiators at barrier ``barrier_id``.

    Arrival is announced with a write to the semaphore target; the
    initiator then polls with reads every ``poll_cycles`` until everyone
    has arrived.
    """

    semaphore: int
    barrier_id: int
    participants: int
    poll_cycles: int = 40


Operation = Union[Compute, Read, Write, Lock, Unlock, Barrier]

_ISSUE = COLUMNS.index("issue")


def trace_replay_program(
    trace: TrafficTrace,
    rows: Sequence[int],
    pace: bool = True,
    start: int = 0,
) -> Iterator[Operation]:
    """Turn one initiator's recorded transactions back into a program.

    ``rows`` index ``trace``'s matrix (:attr:`TrafficTrace.columns`):
    one initiator's transactions, as
    :meth:`TrafficTrace.initiator_rows` lists them. The program reads
    their columns; it builds no trace record objects.

    With ``pace`` (default) the program inserts :class:`Compute` delays to
    issue each access at its recorded issue cycle when possible; under
    contention the program falls behind and issues back to back, modeling
    a master with a queued workload. Without ``pace`` all accesses are
    issued back to back.

    ``start`` is the absolute cycle the program begins executing at.
    Drivers that schedule an initiator's process directly at its first
    recorded issue cycle (see
    :class:`~repro.platform.drivers.TraceDrivenInitiator`) pass it so the
    pacing clock starts in sync instead of re-inserting the initial gap
    as a leading :class:`Compute`.

    The produced program tracks its own notion of time from the *recorded*
    timestamps; the SoC clock may run later (never earlier) than this
    when the new fabric is more congested than the one that produced the
    trace.
    """
    streams = trace.streams
    ordered = sorted(trace.columns[list(rows)].tolist(), key=itemgetter(_ISSUE))
    clock = start
    for _, target, kind, burst, issue, *_, complete, critical, stream in ordered:
        if pace and issue > clock:
            yield Compute(issue - clock)
            clock = issue
        op_class = Read if KINDS[kind] is TransactionKind.READ else Write
        yield op_class(
            target=target,
            burst=burst,
            critical=bool(critical),
            stream=streams[stream],
        )
        # account the uncontended duration so pacing stays approximate
        clock = max(clock, complete)
