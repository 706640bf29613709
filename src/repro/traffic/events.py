"""Transaction-level trace records.

One :class:`TraceRecord` is produced per bus transaction and carries the
full timing breakdown observed by the platform instrumentation:

* ``issue`` -- cycle the initiator requested the interconnect,
* ``it_grant`` / ``it_release`` -- occupancy of the initiator->target bus
  (this interval is the *traffic stream to the target* that the paper's
  windowed analysis measures),
* ``service_start`` / ``service_end`` -- the target's internal service,
* ``ti_grant`` / ``ti_release`` -- occupancy of the target->initiator bus
  for the response,
* ``complete`` -- cycle the initiator observed the response.

Packet latency is ``complete - issue``, matching the latency the paper
reports from its SystemC simulations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import TraceError

__all__ = ["TransactionKind", "TraceRecord"]


class TransactionKind(enum.Enum):
    """STbus operation classes distinguished by the timing model."""

    READ = "read"
    WRITE = "write"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """A single completed interconnect transaction.

    Attributes
    ----------
    initiator / target:
        Indices of the communicating cores within the application's
        initiator and target lists.
    kind:
        Read or write.
    burst:
        Payload length in bus words.
    issue .. complete:
        Cycle timestamps of the transaction's phases (see module docs).
    critical:
        Whether this transaction belongs to a real-time stream (paper
        Sec. 7.3). Critical streams receive bus-separation guarantees.
    stream:
        Label of the logical traffic stream (e.g. ``"arm3->pm3"``); used
        for reporting and criticality bookkeeping.
    """

    initiator: int
    target: int
    kind: TransactionKind
    burst: int
    issue: int
    it_grant: int
    it_release: int
    service_start: int
    service_end: int
    ti_grant: int
    ti_release: int
    complete: int
    critical: bool = False
    stream: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not (
            self.issue
            <= self.it_grant
            <= self.it_release
            <= self.service_start
            <= self.service_end
            <= self.ti_grant
            <= self.ti_release
            <= self.complete
        ):
            stamps = (
                self.issue,
                self.it_grant,
                self.it_release,
                self.service_start,
                self.service_end,
                self.ti_grant,
                self.ti_release,
                self.complete,
            )
            raise TraceError(f"non-monotonic timestamps in trace record: {stamps}")
        if self.burst < 1:
            raise TraceError(f"burst length must be >= 1, got {self.burst}")
        if self.initiator < 0 or self.target < 0:
            raise TraceError("initiator and target indices must be non-negative")

    @property
    def latency(self) -> int:
        """End-to-end packet latency in cycles (issue to completion)."""
        return self.complete - self.issue

    @property
    def it_occupancy(self) -> int:
        """Cycles the transaction held the initiator->target bus."""
        return self.it_release - self.it_grant

    @property
    def ti_occupancy(self) -> int:
        """Cycles the transaction held the target->initiator bus."""
        return self.ti_release - self.ti_grant

    @property
    def queueing_delay(self) -> int:
        """Cycles spent waiting for the first bus grant."""
        return self.it_grant - self.issue
