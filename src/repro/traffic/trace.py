"""Traffic trace container.

A :class:`TrafficTrace` is the product of Phase 1 of the design flow: the
application simulated on a *full* crossbar, where every target owns a
dedicated initiator->target bus, so each bus-occupancy interval reflects
the stream's true demand rather than contention artifacts.

The trace is columnar: one ``int64`` matrix with a row per transaction
and a column per :data:`COLUMNS` field, plus a table of stream names
the ``stream`` column indexes. Phase 2 reads only integer columns
(``it_grant``/``it_release`` per target, ``ti_grant``/``ti_release``
per initiator, criticality), so every producer -- the simulation
kernel, the traffic generators, the collect stage's decode, JSONL load
-- writes columns, and :attr:`TrafficTrace.records` builds
:class:`~repro.traffic.events.TraceRecord` objects only for the edges
that want them (JSONL export, the DES reference model, tests).

The rows are kept in one canonical order, and the stream table in order
of first use along it, so equal content gives an equal matrix however
it was built -- the property :func:`~repro.exec.fingerprint.trace_fingerprint`
hashes.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import TraceError
from repro.traffic.events import TraceRecord, TransactionKind
from repro.traffic.intervals import Interval, normalize, total_length

__all__ = ["COLUMNS", "KINDS", "TrafficTrace"]

COLUMNS = (
    "initiator",
    "target",
    "kind",
    "burst",
    "issue",
    "it_grant",
    "it_release",
    "service_start",
    "service_end",
    "ti_grant",
    "ti_release",
    "complete",
    "critical",
    "stream",
)
"""Column order of a trace's matrix: the :class:`TraceRecord` fields.
``kind`` indexes :data:`KINDS`, ``critical`` is 0 or 1 and ``stream``
indexes the trace's stream table."""

KINDS = tuple(TransactionKind)
"""Transaction kinds by their ``kind`` column value."""

_KIND_INDEX = {kind: index for index, kind in enumerate(KINDS)}
(
    _INITIATOR,
    _TARGET,
    _KIND,
    _BURST,
    _ISSUE,
    _IT_GRANT,
    _IT_RELEASE,
    _SERVICE_START,
    _SERVICE_END,
    _TI_GRANT,
    _TI_RELEASE,
    _COMPLETE,
    _CRITICAL,
    _STREAM,
) = range(len(COLUMNS))
_COLUMN_INDEX = {name: index for index, name in enumerate(COLUMNS)}
_RECORD_COLUMNS = attrgetter(*COLUMNS)

# The canonical row order, least significant key first (``np.lexsort``):
# issue, then it_grant, initiator, target and complete.
_ORDER_KEYS = [_COMPLETE, _TARGET, _INITIATOR, _IT_GRANT, _ISSUE]

# The mirror's columns, read from the trace's own: initiator and target
# swap, the TI-bus interval becomes the IT-bus one, and every later
# stamp collapses onto the response's release.
_MIRROR = [
    _TARGET,
    _INITIATOR,
    _KIND,
    _BURST,
    _ISSUE,
    _TI_GRANT,
    _TI_RELEASE,
    _TI_RELEASE,
    _TI_RELEASE,
    _TI_RELEASE,
    _TI_RELEASE,
    _COMPLETE,
    _CRITICAL,
    _STREAM,
]


class TrafficTrace:
    """An immutable, columnar set of transactions plus platform metadata.

    Parameters
    ----------
    records:
        Completed transactions as :class:`TraceRecord` objects, in any
        order. Producers that have columns use :meth:`from_columns` or
        :meth:`from_rows` instead.
    num_initiators / num_targets:
        Core counts of the platform that produced the trace.
    total_cycles:
        Length of the simulation period. Must cover every record.
    target_names / initiator_names:
        Optional human-readable core names for reporting.
    """

    def __init__(
        self,
        records: Sequence[TraceRecord],
        num_initiators: int,
        num_targets: int,
        total_cycles: int,
        target_names: Optional[Sequence[str]] = None,
        initiator_names: Optional[Sequence[str]] = None,
    ) -> None:
        rows = []
        for record in records:
            row = _RECORD_COLUMNS(record)
            rows.append((*row[:_KIND], _KIND_INDEX[row[_KIND]], *row[_KIND + 1 :]))
        self._adopt(
            *_from_rows(rows),
            num_initiators,
            num_targets,
            total_cycles,
            target_names,
            initiator_names,
        )

    @classmethod
    def from_columns(
        cls,
        matrix,
        streams: Sequence[str],
        num_initiators: int,
        num_targets: int,
        total_cycles: int,
        target_names: Optional[Sequence[str]] = None,
        initiator_names: Optional[Sequence[str]] = None,
    ) -> "TrafficTrace":
        """A trace from an integer matrix in :data:`COLUMNS` layout whose
        ``stream`` column indexes ``streams``; rows in any order.

        The rows pass the checks a :class:`TraceRecord` and the
        constructor make, in one vectorized pass that names the first
        bad row as the record path would.
        """
        trace = cls.__new__(cls)
        trace._adopt(
            matrix,
            streams,
            num_initiators,
            num_targets,
            total_cycles,
            target_names,
            initiator_names,
        )
        return trace

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[tuple],
        num_initiators: int,
        num_targets: int,
        total_cycles: int,
        target_names: Optional[Sequence[str]] = None,
        initiator_names: Optional[Sequence[str]] = None,
    ) -> "TrafficTrace":
        """A trace from column rows: tuples in :data:`COLUMNS` order
        whose last value is the stream's name, not its index."""
        trace = cls.__new__(cls)
        trace._adopt(
            *_from_rows(rows),
            num_initiators,
            num_targets,
            total_cycles,
            target_names,
            initiator_names,
        )
        return trace

    def _adopt(
        self,
        matrix,
        streams: Sequence[str],
        num_initiators: int,
        num_targets: int,
        total_cycles: int,
        target_names: Optional[Sequence[str]],
        initiator_names: Optional[Sequence[str]],
    ) -> None:
        import numpy as np

        matrix = np.asarray(matrix, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] != len(COLUMNS):
            raise TraceError(
                f"trace matrix must have shape (n, {len(COLUMNS)}), "
                f"got {matrix.shape}"
            )
        _check_rows(matrix, len(streams))
        if num_initiators < 1 or num_targets < 1:
            raise TraceError("platform must have at least one initiator and target")
        if total_cycles < 1:
            raise TraceError(f"total_cycles must be positive, got {total_cycles}")
        _check_ranges(matrix, num_initiators, num_targets, total_cycles)
        # A *total* order (no two distinct records tie): same-cycle
        # transactions from different cores would otherwise keep the
        # arbitrary relative position their simulation's event ordering
        # happened to append them in, making the canonical matrix -- and
        # everything content-addressed from it -- depend on scheduling
        # internals instead of content. ``lexsort`` is stable.
        matrix = matrix[np.lexsort(matrix[:, _ORDER_KEYS].T)]
        self.streams: Tuple[str, ...] = _canonical_streams(matrix, streams)
        matrix.setflags(write=False)
        self._columns = matrix
        self.num_initiators = num_initiators
        self.num_targets = num_targets
        self.total_cycles = int(total_cycles)
        self.target_names = list(
            target_names or (f"t{idx}" for idx in range(num_targets))
        )
        self.initiator_names = list(
            initiator_names or (f"i{idx}" for idx in range(num_initiators))
        )
        if len(self.target_names) != num_targets:
            raise TraceError("target_names length does not match num_targets")
        if len(self.initiator_names) != num_initiators:
            raise TraceError("initiator_names length does not match num_initiators")
        self._records: Optional[List[TraceRecord]] = None
        self._target_activity: Dict[Tuple[int, bool], List[Interval]] = {}
        self._initiator_activity: Dict[Tuple[int, bool], List[Interval]] = {}
        self._mirror: Optional["TrafficTrace"] = None

    @property
    def columns(self):
        """The read-only ``int64`` matrix: one row per transaction in
        canonical order, one column per :data:`COLUMNS` field."""
        return self._columns

    def column(self, name: str):
        """One read-only column of :attr:`columns`, by field name."""
        return self._columns[:, _COLUMN_INDEX[name]]

    @property
    def records(self) -> List[TraceRecord]:
        """All transactions as record objects, in canonical order.

        An edge view, built on first use: nothing on the design path
        reads it."""
        if self._records is None:
            kinds, streams = KINDS, self.streams
            self._records = [
                TraceRecord(
                    *row[:2],
                    kinds[row[2]],
                    *row[3:12],
                    bool(row[12]),
                    streams[row[13]],
                )
                for row in self._columns.tolist()
            ]
        return list(self._records)

    def __len__(self) -> int:
        return self._columns.shape[0]

    def records_to_target(self, target: int) -> List[TraceRecord]:
        """All records whose destination is ``target``."""
        self._check_target(target)
        return [rec for rec in self.records if rec.target == target]

    def records_from_initiator(self, initiator: int) -> List[TraceRecord]:
        """All records issued by ``initiator``."""
        self._check_initiator(initiator)
        return [rec for rec in self.records if rec.initiator == initiator]

    def initiator_rows(self) -> List[List[int]]:
        """Each initiator's row indices into :attr:`columns`, in
        canonical (issue) order."""
        import numpy as np

        owners = self._columns[:, _INITIATOR]
        order = np.argsort(owners, kind="stable")
        bounds = np.cumsum(np.bincount(owners, minlength=self.num_initiators))
        return [chunk.tolist() for chunk in np.split(order, bounds[:-1])]

    def target_activity(self, target: int, critical_only: bool = False) -> List[Interval]:
        """Normalized IT-bus busy intervals of the stream to ``target``.

        With ``critical_only`` the timeline is restricted to transactions
        flagged as real-time (paper Sec. 7.3). The timelines of *all*
        targets of a flavor are built in one pass on first use.
        """
        self._check_target(target)
        return self._activity(
            self._target_activity,
            self.num_targets,
            (_TARGET, _IT_GRANT, _IT_RELEASE),
            target,
            critical_only,
        )

    def initiator_activity(
        self, initiator: int, critical_only: bool = False
    ) -> List[Interval]:
        """Normalized TI-bus busy intervals of responses to ``initiator``.

        This is the mirror-image timeline used to design the
        target->initiator crossbar: on that crossbar, buses are shared by
        *initiators*, so the relevant stream is the response traffic each
        initiator receives.
        """
        self._check_initiator(initiator)
        return self._activity(
            self._initiator_activity,
            self.num_initiators,
            (_INITIATOR, _TI_GRANT, _TI_RELEASE),
            initiator,
            critical_only,
        )

    def _activity(self, memo, count, fields, index, critical_only):
        key = (index, critical_only)
        if key not in memo:
            rows = self._columns
            if critical_only:
                rows = rows[rows[:, _CRITICAL] == 1]
            grouped: List[List[Interval]] = [[] for _ in range(count)]
            owner, start, end = (rows[:, field].tolist() for field in fields)
            for who, begin, finish in zip(owner, start, end):
                grouped[who].append((begin, finish))
            for position, intervals in enumerate(grouped):
                memo[(position, critical_only)] = normalize(intervals)
        return memo[key]

    def target_busy_cycles(self, target: int) -> int:
        """Total cycles during which ``target`` received request traffic."""
        return total_length(self.target_activity(target))

    def critical_targets(self) -> List[int]:
        """Targets that receive at least one critical transaction."""
        rows = self._columns
        return sorted(set(rows[rows[:, _CRITICAL] == 1, _TARGET].tolist()))

    def latencies(self) -> List[int]:
        """Per-transaction packet latencies, in record order."""
        rows = self._columns
        return (rows[:, _COMPLETE] - rows[:, _ISSUE]).tolist()

    def select(self, keep: Sequence[bool]) -> "TrafficTrace":
        """The trace of the rows ``keep`` flags, one flag per row in
        canonical order; same platform and period."""
        import numpy as np

        return TrafficTrace.from_columns(
            self._columns[np.asarray(keep, dtype=bool)],
            self.streams,
            num_initiators=self.num_initiators,
            num_targets=self.num_targets,
            total_cycles=self.total_cycles,
            target_names=self.target_names,
            initiator_names=self.initiator_names,
        )

    def mirrored(self) -> "TrafficTrace":
        """A view of the trace with initiator and target roles swapped.

        The returned trace treats each *initiator* as a pseudo-target whose
        activity is the response traffic it receives (``ti_grant`` ..
        ``ti_release``). Feeding the mirrored trace through the same
        windowing/synthesis pipeline designs the target->initiator
        crossbar, exactly as the paper prescribes ("the target-initiator
        crossbar can be designed in a similar fashion").

        It is one column permutation of the matrix, re-sorted into the
        canonical order, and memoized: sweeps design both crossbar sides
        per point.
        """
        if self._mirror is None:
            self._mirror = TrafficTrace.from_columns(
                self._columns[:, _MIRROR],
                self.streams,
                num_initiators=self.num_targets,
                num_targets=self.num_initiators,
                total_cycles=self.total_cycles,
                target_names=self.initiator_names,
                initiator_names=self.target_names,
            )
        return self._mirror

    def _check_target(self, target: int) -> None:
        if not 0 <= target < self.num_targets:
            raise TraceError(
                f"target index {target} out of range [0, {self.num_targets})"
            )

    def _check_initiator(self, initiator: int) -> None:
        if not 0 <= initiator < self.num_initiators:
            raise TraceError(
                f"initiator index {initiator} out of range "
                f"[0, {self.num_initiators})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TrafficTrace {len(self)} records, "
            f"{self.num_initiators} initiators, {self.num_targets} targets, "
            f"{self.total_cycles} cycles>"
        )


def _from_rows(rows: Sequence[tuple]) -> Tuple[object, List[str]]:
    """The matrix and stream table of column rows whose last value is
    the stream's name."""
    import numpy as np

    matrix = np.empty((len(rows), len(COLUMNS)), dtype=np.int64)
    streams: Dict[str, int] = {}
    if rows:
        columns = list(zip(*rows))
        for index in range(_STREAM):
            matrix[:, index] = columns[index]
        matrix[:, _STREAM] = [
            streams.setdefault(name, len(streams)) for name in columns[_STREAM]
        ]
    return matrix, list(streams)


def _check_rows(matrix, num_streams: int) -> None:
    """The :class:`TraceRecord` checks over every row at once, raising
    the message its ``__post_init__`` raises for the first bad row; then
    the column encodings."""
    stamps = matrix[:, _ISSUE:_CRITICAL]
    unordered = (stamps[:, 1:] < stamps[:, :-1]).any(axis=1)
    short = matrix[:, _BURST] < 1
    negative = (matrix[:, _INITIATOR] < 0) | (matrix[:, _TARGET] < 0)
    bad = unordered | short | negative
    if bad.any():
        row = int(bad.argmax())
        if unordered[row]:
            raise TraceError(
                "non-monotonic timestamps in trace record: "
                f"{tuple(stamps[row].tolist())}"
            )
        if short[row]:
            raise TraceError(
                f"burst length must be >= 1, got {int(matrix[row, _BURST])}"
            )
        raise TraceError("initiator and target indices must be non-negative")
    encodings = (
        ("kind", _KIND, len(KINDS)),
        ("critical", _CRITICAL, 2),
        ("stream", _STREAM, num_streams),
    )
    for name, index, bound in encodings:
        values = matrix[:, index]
        if values.size and (values.min() < 0 or values.max() >= bound):
            raise TraceError(f"{name} column values must lie in [0, {bound})")


def _check_ranges(
    matrix, num_initiators: int, num_targets: int, total_cycles: int
) -> None:
    """The constructor's platform checks, for the first bad row."""
    targets = matrix[:, _TARGET]
    initiators = matrix[:, _INITIATOR]
    completes = matrix[:, _COMPLETE]
    bad = (
        (targets >= num_targets)
        | (initiators >= num_initiators)
        | (completes > total_cycles)
    )
    if not bad.any():
        return
    row = int(bad.argmax())
    if targets[row] >= num_targets:
        raise TraceError(
            f"record references target {int(targets[row])} but trace has "
            f"{num_targets} targets"
        )
    if initiators[row] >= num_initiators:
        raise TraceError(
            f"record references initiator {int(initiators[row])} but trace "
            f"has {num_initiators} initiators"
        )
    raise TraceError(
        f"record completes at {int(completes[row])}, beyond the "
        f"simulation period of {total_cycles} cycles"
    )


def _canonical_streams(matrix, streams: Sequence[str]) -> Tuple[str, ...]:
    """Renumber the ``stream`` column of the canonically sorted
    ``matrix`` in place, in order of first use along the rows, and
    return the matching table: unused names drop out and a name listed
    twice gets one index."""
    import numpy as np

    column = matrix[:, _STREAM]
    if not column.size:
        return ()
    # The rows each distinct index first appears on, without np.unique
    # (which imports numpy.ma on first call).
    order = np.argsort(column, kind="stable")
    ordered = column[order]
    starts = np.flatnonzero(
        np.concatenate(([True], ordered[1:] != ordered[:-1]))
    )
    first_rows = order[starts]
    used = ordered[starts][np.argsort(first_rows)]
    table: Dict[str, int] = {}
    remap = np.zeros(len(streams), dtype=np.int64)
    for old in used.tolist():
        remap[old] = table.setdefault(streams[old], len(table))
    matrix[:, _STREAM] = remap[column]
    return tuple(table)
