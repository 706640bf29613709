"""The generalized per-stage artifact store.

Where :class:`repro.exec.cache.ResultCache` maps whole synthesis points
to :class:`~repro.exec.serialize.SynthesisResult` records, the
:class:`ArtifactStore` holds *stage* outputs keyed by their
content-addressed fingerprints:

* an **in-memory layer** -- an LRU map from fingerprint to the live
  artifact object (problems, conflict matrices, bindings). This is what
  makes a window-size sweep share one traffic-collection artifact
  across points, and an edited scenario suite reuse the unchanged
  scenarios' analyses.
* an optional **disk layer** -- JSON-serializable stages (today the
  search/binding stage) additionally persist through a
  :class:`ResultCache`, so solved bindings survive across processes and
  sessions. Entries are keyed ``stage-<fingerprint-prefix>`` and live in
  the same cache directory as whole-result entries (one ``prune`` /
  ``usage`` covers both).

Every lookup and store is tallied per stage in :class:`StageCounters`;
the counters are what the incremental-resynthesis tests assert on and
what ``repro scenarios run --explain-cache`` prints.
"""

from __future__ import annotations

import os
import tempfile
import threading
import zipfile
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.exec.cache import ResultCache
from repro.obs import metrics as _metrics

__all__ = [
    "StageCounters",
    "ArtifactStore",
    "STAGE_ENTRY_FORMAT",
    "WARM_HINT_FORMAT",
]

STAGE_ENTRY_FORMAT = "repro-stage-artifact-v1"

WARM_HINT_FORMAT = "repro-warm-hint-v1"

_WARM_MEMORY_SLOTS = 256
"""Warm-start hints kept in memory per store. Hints are tiny (one int
per target) so the bound is generous; it exists to keep a pathological
sweep from growing the map without limit."""

_STAGE_EVENTS = _metrics.counter(
    "repro_stage_events_total",
    "Pipeline stage outcomes (computed vs memo/disk cache hits).",
    ("stage", "kind"),
)

_DEFAULT_MEMORY_SLOTS = 128
"""In-memory artifacts kept per store before LRU eviction. Sized for the
largest realistic sweep (tens of points, a handful of artifacts each)
while bounding the tensor-heavy window artifacts a long session creates."""


class StageCounters:
    """Per-stage execution/caching tallies.

    ``computed[stage]`` counts real stage executions, ``memo_hits`` the
    in-memory reuses and ``disk_hits`` the persistent-store reuses. The
    sum of the three is the number of times the stage's output was
    needed.

    Counters double as the pipeline's *progress feed*: observers
    registered with :meth:`subscribe` are called synchronously on every
    tally -- ``observer(kind, stage)`` with ``kind`` one of
    ``"computed"``/``"memo_hit"``/``"disk_hit"`` -- which is how the
    ``repro serve`` job registry streams per-stage progress to pollers
    while a solve is still running. Tallies and snapshots are
    lock-protected, so one runner may be driven and observed from
    different threads.
    """

    def __init__(self) -> None:
        self.computed: Dict[str, int] = {}
        self.memo_hits: Dict[str, int] = {}
        self.disk_hits: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._observers: List[Callable[[str, str], None]] = []

    def subscribe(self, observer: Callable[[str, str], None]) -> None:
        """Call ``observer(kind, stage)`` on every recorded tally.

        Observers run synchronously on the recording thread; they must
        be cheap and must not drive the pipeline themselves.
        """
        self._observers.append(observer)

    def unsubscribe(self, observer: Callable[[str, str], None]) -> None:
        """Remove a previously subscribed observer."""
        self._observers.remove(observer)

    def _bump(self, table: Dict[str, int], kind: str, stage: str) -> None:
        with self._lock:
            table[stage] = table.get(stage, 0) + 1
        # Registry mirror: process-global, monotonic, never reset by
        # per-run snapshots/deltas -- the /metrics view of stage work.
        _STAGE_EVENTS.inc(stage=stage, kind=kind)
        for observer in list(self._observers):
            observer(kind, stage)

    def record_computed(self, stage: str) -> None:
        self._bump(self.computed, "computed", stage)

    def record_memo_hit(self, stage: str) -> None:
        self._bump(self.memo_hits, "memo_hit", stage)

    def record_disk_hit(self, stage: str) -> None:
        self._bump(self.disk_hits, "disk_hit", stage)

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """A consistent copy of the tallies (for deltas around one run,
        and for progress polling from another thread)."""
        with self._lock:
            return {
                "computed": dict(self.computed),
                "memo_hits": dict(self.memo_hits),
                "disk_hits": dict(self.disk_hits),
            }

    def breakdown(self) -> str:
        """Human-readable per-stage hit/miss table."""
        return self.format_tables(self.snapshot())

    @staticmethod
    def delta(
        before: Dict[str, Dict[str, int]], after: Dict[str, Dict[str, int]]
    ) -> Dict[str, Dict[str, int]]:
        """Per-stage tallies accumulated between two snapshots."""
        out: Dict[str, Dict[str, int]] = {}
        for table in ("computed", "memo_hits", "disk_hits"):
            diffs = {
                stage: count - before.get(table, {}).get(stage, 0)
                for stage, count in after.get(table, {}).items()
            }
            out[table] = {k: v for k, v in diffs.items() if v}
        return out

    @staticmethod
    def format_tables(tables: Dict[str, Dict[str, int]]) -> str:
        """Render snapshot/delta tables as the ``--explain-cache`` view."""
        names = sorted(
            set().union(*(tables.get(t, {}) for t in tables)) if tables else ()
        )
        lines = [
            "stage                     computed  memo-hit  disk-hit"
        ]
        for stage in names:
            lines.append(
                f"{stage:<25} "
                f"{tables.get('computed', {}).get(stage, 0):>8} "
                f"{tables.get('memo_hits', {}).get(stage, 0):>9} "
                f"{tables.get('disk_hits', {}).get(stage, 0):>9}"
            )
        if len(lines) == 1:
            lines.append("(no stage executions recorded)")
        return "\n".join(lines)


class ArtifactStore:
    """Fingerprint-addressed store for pipeline stage artifacts.

    Parameters
    ----------
    disk:
        Optional persistent layer for JSON-serializable stages: the
        directory's :class:`ResultCache`, which counts stage entries in
        its ``stage_stats``, apart from whole-result lookups.
    max_memory_entries:
        LRU bound of the in-memory layer.
    """

    def __init__(
        self,
        disk: Optional[ResultCache] = None,
        max_memory_entries: int = _DEFAULT_MEMORY_SLOTS,
    ) -> None:
        if max_memory_entries < 1:
            raise ValueError("max_memory_entries must be >= 1")
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self._warm: "OrderedDict[str, List[int]]" = OrderedDict()
        self.max_memory_entries = max_memory_entries
        self.disk = disk
        self.counters = StageCounters()
        # The LRU's mutate-and-reorder operations are not atomic on
        # their own; the lock makes one store shareable across server
        # job threads.
        self._memory_lock = threading.RLock()

    # -- in-memory layer ----------------------------------------------

    def get(self, fingerprint: str) -> Optional[Any]:
        """The live artifact for ``fingerprint``, or ``None``."""
        with self._memory_lock:
            artifact = self._memory.get(fingerprint)
            if artifact is not None:
                self._memory.move_to_end(fingerprint)
            return artifact

    def put(self, fingerprint: str, artifact: Any) -> None:
        """Keep ``artifact`` in the in-memory layer (LRU-bounded)."""
        with self._memory_lock:
            self._memory[fingerprint] = artifact
            self._memory.move_to_end(fingerprint)
            while len(self._memory) > self.max_memory_entries:
                self._memory.popitem(last=False)

    def reserve(self, entries: int) -> None:
        """Grow the LRU bound to at least ``entries`` (never shrinks).

        Callers that know their working set -- e.g. the suite runner,
        whose incremental guarantee dies silently if one run's artifacts
        exceed the bound -- size the store before filling it.
        """
        with self._memory_lock:
            if entries > self.max_memory_entries:
                self.max_memory_entries = entries

    def __contains__(self, fingerprint: str) -> bool:
        with self._memory_lock:
            return fingerprint in self._memory

    # -- disk layer ---------------------------------------------------

    @staticmethod
    def _disk_key(fingerprint: str) -> str:
        # Prefixed so stage entries are recognizable next to whole-result
        # entries sharing the directory; the fingerprint is already a
        # collision-resistant content hash.
        return f"stage-{fingerprint}"

    def get_payload(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The persisted payload for ``fingerprint``, or ``None``."""
        if self.disk is None:
            return None
        entry = self.disk.get_json(self._disk_key(fingerprint))
        if entry is None or entry.get("format") != STAGE_ENTRY_FORMAT:
            return None
        payload = entry.get("payload")
        return payload if isinstance(payload, dict) else None

    def put_payload(self, fingerprint: str, payload: Dict[str, Any]) -> None:
        """Persist ``payload`` under ``fingerprint`` (no-op without disk)."""
        if self.disk is None:
            return
        self.disk.put_json(
            self._disk_key(fingerprint),
            {"format": STAGE_ENTRY_FORMAT, "payload": payload},
        )

    # -- warm-start hints ---------------------------------------------

    def get_warm(self, key: str) -> Optional[List[int]]:
        """The last binding solved under warm-hint slot ``key``.

        Checks the in-memory map first, then the disk layer (entries
        keyed ``warm-<key>``). Hints are advisory -- the solver
        re-validates them -- so a malformed or missing entry is simply
        a miss.
        """
        with self._memory_lock:
            hint = self._warm.get(key)
            if hint is not None:
                self._warm.move_to_end(key)
                return list(hint)
        if self.disk is None:
            return None
        entry = self.disk.get_json(f"warm-{key}")
        if entry is None or entry.get("format") != WARM_HINT_FORMAT:
            return None
        binding = entry.get("binding")
        if not isinstance(binding, list) or not all(
            isinstance(bus, int) for bus in binding
        ):
            return None
        with self._memory_lock:
            self._warm[key] = list(binding)
            self._warm.move_to_end(key)
        return list(binding)

    def put_warm(self, key: str, binding) -> None:
        """Record ``binding`` as the warm-start hint for slot ``key``.

        Unlike artifacts, hints overwrite: the slot always holds the
        most recent solve's answer, which is the best available guess
        for the next similar problem.
        """
        hint = [int(bus) for bus in binding]
        with self._memory_lock:
            self._warm[key] = hint
            self._warm.move_to_end(key)
            while len(self._warm) > _WARM_MEMORY_SLOTS:
                self._warm.popitem(last=False)
        if self.disk is not None:
            self.disk.put_json(
                f"warm-{key}", {"format": WARM_HINT_FORMAT, "binding": hint}
            )

    # -- tensor sidecars ----------------------------------------------

    def _sidecar_path(self, fingerprint: str):
        return self.disk.cache_dir / f"{self._disk_key(fingerprint)}.npz"

    def get_arrays(self, fingerprint: str) -> Optional[Dict[str, np.ndarray]]:
        """The persisted tensor sidecar for ``fingerprint``, or ``None``.

        Tensor-heavy stages (the windowed ``comm``/``wo`` analysis, the
        collect stage's columnar trace) persist as compressed ``.npz``
        sidecars next to the JSON entries: far denser than JSON and
        loadable without rebuilding the trace. Unreadable or truncated
        sidecars degrade to misses, exactly like corrupt JSON entries.
        """
        if self.disk is None:
            return None
        path = self._sidecar_path(fingerprint)
        try:
            with np.load(path, allow_pickle=False) as data:
                arrays = {name: data[name] for name in data.files}
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
            # Corrupt sidecar: recompute and overwrite. BadZipFile is
            # what a truncated ``.npz`` (a torn write, a full disk)
            # actually raises -- it is not an OSError. Drop the bad
            # file here: ``put_arrays`` skips existing sidecars, so a
            # corrupt one must not shadow the rewrite.
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        try:
            os.utime(path)  # keep LRU pruning honest on sidecar hits
        except OSError:  # pragma: no cover - best-effort bookkeeping
            pass
        return arrays

    def put_arrays(
        self, fingerprint: str, arrays: Mapping[str, np.ndarray]
    ) -> None:
        """Persist tensors as a compressed ``.npz`` sidecar atomically
        (no-op without a disk layer).

        Sidecars are content-addressed, so when the entry already
        exists the serialize/compress work is skipped entirely (only
        its mtime refreshes) -- warm suite re-runs stop paying
        ``np.savez_compressed`` for entries already on disk.

        Like :meth:`ResultCache.put_json`, the write is best-effort: a
        failing disk loses the sidecar (the stage recomputes next time),
        never the in-memory artifact or the run that produced it.
        """
        if self.disk is None:
            return
        path = self._sidecar_path(fingerprint)
        if path.exists():
            try:
                os.utime(path)
            except OSError:  # pragma: no cover - best-effort bookkeeping
                pass
            return
        try:
            self.disk.cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.disk.cache_dir, prefix=".tmp-", suffix=".npz"
            )
        except OSError:
            return
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez_compressed(handle, **arrays)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            return
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def drop_arrays(self, fingerprint: str) -> None:
        """Delete the sidecar of ``fingerprint`` (no-op without a disk
        layer). For callers that find a sidecar decodes cleanly but
        holds the wrong content: :meth:`put_arrays` skips existing
        sidecars, so a bad one must go before it can be rewritten."""
        if self.disk is None:
            return
        try:
            os.unlink(self._sidecar_path(fingerprint))
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        disk = self.disk.cache_dir if self.disk is not None else None
        return f"<ArtifactStore memory={len(self._memory)} disk={disk}>"
