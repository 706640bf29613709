"""Span export: JSONL, Chrome ``trace_event`` JSON, indented summary.

Three consumers, three formats:

* **JSONL** -- one span object per line; the interchange format the
  ``repro trace`` CLI reads back and the ``--trace FILE`` capture
  writes.
* **Chrome trace events** -- complete ``ph: "X"`` duration events with
  microsecond timestamps, loadable in ``chrome://tracing`` or
  `Perfetto <https://ui.perfetto.dev>`_; events carry real pids and
  thread ids, so daemon job threads show up as separate tracks.
* **Indented table** -- the terminal view: the span tree by parent
  links, one row per span with wall/CPU time and attributes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.obs.tracing import Span

__all__ = [
    "write_jsonl",
    "load_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "format_span_tree",
]


def write_jsonl(spans: Iterable[Span], path: str) -> int:
    """Write spans as JSON lines; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
            count += 1
    return count


def load_jsonl(path: str) -> List[Span]:
    """Read spans back from a JSONL file (unparseable lines raise --
    an export file is expected to be whole)."""
    spans = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


def to_chrome_trace(spans: Sequence[Span]) -> Dict[str, Any]:
    """Spans as a Chrome ``trace_event`` document.

    Timestamps and durations are microseconds (the format's unit);
    trace/span/parent ids ride along in ``args`` so a Perfetto query
    can still reconstruct the tree.
    """
    events = []
    for span in sorted(spans, key=lambda s: (s.t_start, s.span_id)):
        args: Dict[str, Any] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
        }
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args["cpu_ms"] = round(span.cpu_s * 1e3, 3)
        args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": round(span.t_start * 1e6, 1),
                "dur": round(span.wall_s * 1e6, 1),
                "pid": span.pid,
                "tid": span.tid,
                "cat": "repro",
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Sequence[Span], path: str) -> int:
    """Write the Chrome trace document; returns the event count."""
    document = to_chrome_trace(spans)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
    return len(document["traceEvents"])


def _format_attrs(attrs: Dict[str, Any]) -> str:
    return " ".join(
        f"{key}={value}" for key, value in sorted(attrs.items())
    )


def format_span_tree(
    spans: Sequence[Span], trace_id: Optional[str] = None
) -> str:
    """Render spans as an indented table, one row per span.

    Children indent under their parent; spans whose parent is missing
    (a span recorded before its parent was armed, or a filtered
    trace) render as roots. Sibling order is start time.
    """
    items = list(spans)
    if trace_id is not None:
        items = [s for s in items if s.trace_id == trace_id]
    if not items:
        return "(no spans)"
    by_id = {s.span_id: s for s in items}
    children: Dict[Optional[str], List[Span]] = {}
    for span in items:
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.t_start, s.span_id))

    name_width = max(
        (len(s.name) + 2 * _depth(s, by_id) for s in items), default=4
    )
    name_width = max(name_width, len("span"))
    lines = [
        f"  {'span':<{name_width}} {'wall ms':>10} {'cpu ms':>10} "
        f"{'pid':>7}  attrs"
    ]

    def _emit(span: Span, depth: int) -> None:
        label = "  " * depth + span.name
        lines.append(
            f"  {label:<{name_width}} {span.wall_s * 1e3:>10.2f} "
            f"{span.cpu_s * 1e3:>10.2f} {span.pid:>7}  "
            f"{_format_attrs(span.attrs)}".rstrip()
        )
        for child in children.get(span.span_id, []):
            _emit(child, depth + 1)

    for root in children.get(None, []):
        _emit(root, 0)
    return "\n".join(lines)


def _depth(span: Span, by_id: Dict[str, Span]) -> int:
    depth = 0
    seen = {span.span_id}
    current = span
    while current.parent_id in by_id and current.parent_id not in seen:
        seen.add(current.parent_id)
        current = by_id[current.parent_id]
        depth += 1
    return depth
