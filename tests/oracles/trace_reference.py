"""Object-built traces, kept as the oracle of the columnar trace.

Before :class:`~repro.traffic.trace.TrafficTrace` held one integer
matrix, a trace was a sorted list of :class:`~repro.traffic.events.TraceRecord`
objects, and every producer and derivation built those objects: the
traffic generators' ``write_packet``, the mirror, thinning and JSONL
load. The functions here are those object paths. The columnar trace's
:attr:`~repro.traffic.trace.TrafficTrace.records` view must equal them
field for field, ``stream`` included (record equality ignores it);
``tests/traffic/test_columnar_oracle.py`` checks that.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import List, Sequence

from repro.traffic.events import TraceRecord, TransactionKind

__all__ = [
    "canonical",
    "fields",
    "load_jsonl_records",
    "mirror",
    "thin",
    "write_packet_record",
]

_RECORD_FIELDS = (
    "initiator",
    "target",
    "burst",
    "issue",
    "it_grant",
    "it_release",
    "service_start",
    "service_end",
    "ti_grant",
    "ti_release",
    "complete",
)


def canonical(records: Sequence[TraceRecord]) -> List[TraceRecord]:
    """Records in the trace's canonical order (a stable sort)."""
    return sorted(
        records,
        key=lambda rec: (
            rec.issue,
            rec.it_grant,
            rec.initiator,
            rec.target,
            rec.complete,
        ),
    )


def fields(records: Sequence[TraceRecord]) -> List[tuple]:
    """Every field of every record, ``stream`` included, with exact types."""
    return [
        (
            rec.initiator,
            rec.target,
            rec.kind,
            rec.burst,
            rec.issue,
            rec.it_grant,
            rec.it_release,
            rec.service_start,
            rec.service_end,
            rec.ti_grant,
            rec.ti_release,
            rec.complete,
            rec.critical,
            rec.stream,
        )
        for rec in records
    ]


def write_packet_record(
    cursor: int, initiator: int, target: int, words: int, critical: bool = False
) -> TraceRecord:
    """One generated write packet, as the generators built it."""
    it_release = cursor + 1 + words
    ti_release = it_release + 1
    return TraceRecord(
        initiator=initiator,
        target=target,
        kind=TransactionKind.WRITE,
        burst=words,
        issue=cursor,
        it_grant=cursor,
        it_release=it_release,
        service_start=it_release,
        service_end=it_release,
        ti_grant=it_release,
        ti_release=ti_release,
        complete=ti_release,
        critical=critical,
        stream=f"i{initiator}->t{target}",
    )


def mirror(records: Sequence[TraceRecord]) -> List[TraceRecord]:
    """The initiator/target-swapped trace, canonically ordered."""
    return canonical(
        [
            TraceRecord(
                initiator=rec.target,
                target=rec.initiator,
                kind=rec.kind,
                burst=rec.burst,
                issue=rec.issue,
                it_grant=rec.ti_grant,
                it_release=rec.ti_release,
                service_start=rec.ti_release,
                service_end=rec.ti_release,
                ti_grant=rec.ti_release,
                ti_release=rec.ti_release,
                complete=rec.complete,
                critical=rec.critical,
                stream=rec.stream,
            )
            for rec in records
        ]
    )


def thin(
    records: Sequence[TraceRecord], keep_fraction: float, seed: int
) -> List[TraceRecord]:
    """Each canonical record kept with probability ``keep_fraction``."""
    if keep_fraction == 1.0:
        return list(records)
    rng = random.Random(seed)
    return [rec for rec in records if rng.random() < keep_fraction]


def load_jsonl_records(path: Path) -> List[TraceRecord]:
    """The records of a ``repro-trace-v1`` file, canonically ordered."""
    with Path(path).open(encoding="utf-8") as handle:
        handle.readline()
        rows = [json.loads(line) for line in handle if line.strip()]
    return canonical(
        [
            TraceRecord(
                kind=TransactionKind(row["kind"]),
                critical=row.get("critical", False),
                stream=row.get("stream", ""),
                **{name: row[name] for name in _RECORD_FIELDS},
            )
            for row in rows
        ]
    )
