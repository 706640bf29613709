"""Trace persistence.

Traces are stored as JSON Lines: the first line is a header object with
the platform metadata, every following line one transaction record. The
format is self-describing, diff-friendly and stream-parseable, which suits
traces of tens of thousands of records.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.errors import TraceError
from repro.traffic.events import TransactionKind
from repro.traffic.trace import KINDS, TrafficTrace

__all__ = ["save_trace_jsonl", "load_trace_jsonl"]

_FORMAT = "repro-trace-v1"

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


def save_trace_jsonl(trace: TrafficTrace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` in the JSONL trace format."""
    path = Path(path)
    header = {
        "format": _FORMAT,
        "num_initiators": trace.num_initiators,
        "num_targets": trace.num_targets,
        "total_cycles": trace.total_cycles,
        "target_names": trace.target_names,
        "initiator_names": trace.initiator_names,
        "num_records": len(trace),
    }
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        for record in trace.records:
            row = {name: getattr(record, name) for name in _RECORD_FIELDS}
            row["kind"] = record.kind.value
            if record.critical:
                row["critical"] = True
            if record.stream:
                row["stream"] = record.stream
            handle.write(json.dumps(row) + "\n")


def load_trace_jsonl(path: Union[str, Path]) -> TrafficTrace:
    """Read a trace previously written by :func:`save_trace_jsonl`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line:
            raise TraceError(f"{path} is empty")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{path}: malformed header: {exc}") from exc
        if header.get("format") != _FORMAT:
            raise TraceError(
                f"{path}: unsupported trace format {header.get('format')!r}"
            )
        rows = []
        for line_number, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{path}:{line_number}: malformed record") from exc
            try:
                kind = KINDS.index(TransactionKind(row["kind"]))
                rows.append(
                    (
                        *(row[name] for name in _RECORD_FIELDS[:2]),
                        kind,
                        *(row[name] for name in _RECORD_FIELDS[2:]),
                        int(row.get("critical", False)),
                        row.get("stream", ""),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceError(
                    f"{path}:{line_number}: invalid record fields: {exc}"
                ) from exc
    expected = header.get("num_records")
    if expected is not None and expected != len(rows):
        raise TraceError(
            f"{path}: header promises {expected} records, found {len(rows)}"
        )
    return TrafficTrace.from_rows(
        rows,
        num_initiators=header["num_initiators"],
        num_targets=header["num_targets"],
        total_cycles=header["total_cycles"],
        target_names=header.get("target_names"),
        initiator_names=header.get("initiator_names"),
    )
