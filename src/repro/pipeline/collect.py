"""Input-keyed Phase-1 trace collection.

Every later stage is keyed by the trace's content digest
(:func:`~repro.exec.fingerprint.trace_fingerprint`), which is only known
once the trace exists -- so without this module a warm ``repro design``
re-simulates the application just to learn which cache entries to read.
:class:`CollectStage` keys program-driven collection by the
simulation's *inputs* instead:

* the driver's content key (``app:<name>`` plus the platform spec),
* the driver's cycle budget,
* :data:`SIMULATOR_SALT`, bumped whenever the simulator, the platform
  models or an application program changes the traffic they produce,
* :data:`~repro.exec.fingerprint.CACHE_SCHEMA_VERSION`, which the stored
  digest depends on.

One entry lives in the artifact store's disk layer under that key: a
JSON payload with the trace's digest, shape and core names, plus the
records as a columnar integer matrix in a tensor sidecar. A lookup
answers with a :class:`TraceSource` -- the digest and names up front,
the records only when :meth:`TraceSource.trace` is called -- so a
whole-result cache hit never loads, simulates or hashes a trace.

A loaded trace is re-fingerprinted and must match the stored digest.
Anything else -- an unreadable payload, a missing or truncated sidecar,
a digest mismatch -- drops the entry and re-simulates (the source then
reports the new trace's digest): a cache may cost time, never change an
answer. Only content-addressable workloads (default registry builds)
are cached, and they share the registry's per-process simulation memo
(:func:`~repro.apps.registry.default_full_crossbar_trace`); customized
builds simulate every time. Without a disk layer nothing is encoded or
hashed.
"""

from __future__ import annotations

import threading
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.exec.fingerprint import CACHE_SCHEMA_VERSION, trace_fingerprint
from repro.pipeline.artifacts import stage_fingerprint
from repro.pipeline.runner import _timed_stage
from repro.pipeline.store import ArtifactStore
from repro.traffic.events import TraceRecord, TransactionKind
from repro.traffic.trace import TrafficTrace

__all__ = ["SIMULATOR_SALT", "TraceSource", "CollectStage", "collect_key"]

SIMULATOR_SALT = 1
"""Version of the traffic the simulator produces for a given input.

Part of every collect key. Bump it -- together with the golden digests
in ``tests/pipeline/test_collect_stage.py`` -- whenever a change to the
simulator, the platform models or an application program moves a
recorded trace, so no entry written before the change is ever read."""

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
"""Column order of the stored record matrix. ``kind`` indexes
:data:`_KINDS`, ``stream`` indexes the ``streams`` string table."""

_KINDS = tuple(TransactionKind)
_KIND_INDEX = {kind: index for index, kind in enumerate(_KINDS)}
_COUNT_FIELDS = ("num_initiators", "num_targets", "total_cycles", "num_records")
_STAGE = "collect"


def collect_key(application) -> Optional[str]:
    """The input key of ``application``'s full-crossbar collection, or
    ``None`` when the application cannot be content-addressed."""
    driver = application.driver()
    try:
        workload = driver.workload_key()
    except ConfigurationError:
        return None
    spec = {
        "workload": workload,
        "sim_cycles": driver.sim_cycles,
        "simulator": SIMULATOR_SALT,
        "trace_schema": CACHE_SCHEMA_VERSION,
    }
    return stage_fingerprint(_STAGE, None, spec)


class TraceSource:
    """A collected trace known by its digest, loaded on first use.

    ``initiator_names`` and ``target_names`` are available without the
    records; :meth:`trace` materializes them once (thread safe) and
    returns the same object afterwards. :attr:`digest` is the stored
    digest until the trace is loaded, the loaded trace's own digest
    after; a source built from an in-memory trace hashes it on first
    read only.
    """

    def __init__(
        self,
        initiator_names: Sequence[str],
        target_names: Sequence[str],
        load: Callable[[], TrafficTrace],
        digest: Optional[str] = None,
    ) -> None:
        self.initiator_names = list(initiator_names)
        self.target_names = list(target_names)
        self._load = load
        self._digest = digest
        self._trace: Optional[TrafficTrace] = None
        self._lock = threading.Lock()

    @classmethod
    def of(cls, trace: TrafficTrace) -> "TraceSource":
        """A source for a trace already in memory."""
        source = cls(trace.initiator_names, trace.target_names, lambda: trace)
        source._trace = trace
        return source

    @property
    def digest(self) -> str:
        if self._digest is None:
            self._digest = trace_fingerprint(self.trace())
        return self._digest

    def trace(self) -> TrafficTrace:
        with self._lock:
            if self._trace is None:
                self._trace = self._load()
                # Memoized on the trace by the load's own check, and it
                # differs from the stored digest after a re-simulation.
                self._digest = trace_fingerprint(self._trace)
            return self._trace


class CollectStage:
    """Program-driven Phase-1 collection behind an input-keyed store.

    Lookup order per :meth:`source` call: the store's in-memory layer
    (``memo_hit``), its disk layer (``disk_hit``), then simulation
    (``computed``); :meth:`lookup` stops before the simulation --
    tallied under the ``collect`` stage of the store's
    :class:`~repro.pipeline.store.StageCounters`. A re-simulation after
    a failed load tallies ``computed`` as well. ``computed`` means the
    trace came from the simulator, not from this store; the registry's
    per-process memo answers a default build simulated earlier in the
    same process.
    """

    def __init__(self, store: Optional[ArtifactStore] = None) -> None:
        self.store = store if store is not None else ArtifactStore()

    @property
    def counters(self):
        return self.store.counters

    def lookup(self, application) -> Optional[TraceSource]:
        """The stored source of ``application``'s trace -- from memory,
        then disk -- or ``None``. Never simulates."""
        key = collect_key(application)
        return self._stored(key, application) if key is not None else None

    def source(self, application) -> TraceSource:
        """The full-crossbar trace of ``application`` as a source: the
        stored one, else a fresh simulation (persisted when keyed)."""
        key = collect_key(application)
        if key is None:
            return TraceSource.of(self._simulate(application, ""))
        source = self._stored(key, application)
        if source is None:
            trace = self._simulate(application, key)
            self._persist(key, trace)
            source = TraceSource.of(trace)
            self.store.put(key, source)
        return source

    def _stored(self, key: str, application) -> Optional[TraceSource]:
        cached = self.store.get(key)
        if cached is not None:
            self.counters.record_memo_hit(_STAGE)
            return cached
        entry = _read_entry(self.store.get_payload(key))
        if entry is None:
            return None
        self.counters.record_disk_hit(_STAGE)
        source = TraceSource(
            entry["initiator_names"],
            entry["target_names"],
            lambda: self._load(key, entry, application),
            digest=entry["digest"],
        )
        self.store.put(key, source)
        return source

    def _simulate(self, application, key: str) -> TrafficTrace:
        from repro.apps.registry import default_full_crossbar_trace

        def run() -> TrafficTrace:
            if key:
                # A keyed build is a default registry build: share the
                # process-wide memo with every other consumer.
                return default_full_crossbar_trace(application.registry_key)
            return application.simulate_full_crossbar().trace

        self.counters.record_computed(_STAGE)
        return _timed_stage(_STAGE, key, run)

    def _persist(self, key: str, trace: TrafficTrace) -> None:
        if self.store.disk is None:
            return
        # Sidecar first: a reader that finds the payload finds its
        # records too, barring a later eviction (which _load absorbs).
        self.store.put_arrays(key, _encode(trace))
        self.store.put_payload(
            key,
            {
                "digest": trace_fingerprint(trace),
                "num_initiators": trace.num_initiators,
                "num_targets": trace.num_targets,
                "total_cycles": trace.total_cycles,
                "num_records": len(trace),
                "initiator_names": list(trace.initiator_names),
                "target_names": list(trace.target_names),
                "columns": list(COLUMNS),
            },
        )

    def _load(self, key: str, entry: Dict[str, Any], application) -> TrafficTrace:
        arrays = self.store.get_arrays(key)
        trace = _decode(arrays, entry) if arrays is not None else None
        if trace is not None and trace_fingerprint(trace) == entry["digest"]:
            return trace
        self.store.drop_arrays(key)
        trace = self._simulate(application, key)
        self._persist(key, trace)
        return trace


def _read_entry(payload: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """A validated collect payload, or ``None`` (a miss)."""
    if payload is None or payload.get("columns") != list(COLUMNS):
        return None
    digest = payload.get("digest")
    names = [payload.get("initiator_names"), payload.get("target_names")]
    counts = [payload.get(field) for field in _COUNT_FIELDS]
    if not isinstance(digest, str) or len(digest) != 64:
        return None
    for group in names:
        if not isinstance(group, list):
            return None
        if not all(isinstance(name, str) for name in group):
            return None
    if not all(isinstance(count, int) for count in counts):
        return None
    if [len(group) for group in names] != counts[:2]:
        return None
    return payload


def _encode(trace: TrafficTrace) -> Dict[str, np.ndarray]:
    """The trace's records as a columnar matrix plus a stream table.

    Filled one column at a time straight from the records: building
    per-record tuples first would briefly hold every field as a Python
    int, which shows up in the process's peak memory."""
    records = trace.records
    streams: Dict[str, int] = {}
    derived = {
        "kind": lambda rec: _KIND_INDEX[rec.kind],
        "stream": lambda rec: streams.setdefault(rec.stream, len(streams)),
    }
    matrix = np.empty((len(records), len(COLUMNS)), dtype=np.int64)
    for index, column in enumerate(COLUMNS):
        value = derived.get(column, attrgetter(column))
        matrix[:, index] = np.fromiter(
            map(value, records), dtype=np.int64, count=len(records)
        )
    if not matrix.size or matrix.max() <= np.iinfo(np.int32).max:
        matrix = matrix.astype(np.int32)
    return {
        "records": matrix,
        "streams": np.asarray(list(streams), dtype=np.str_),
    }


def _decode(
    arrays: Dict[str, np.ndarray], entry: Dict[str, Any]
) -> Optional[TrafficTrace]:
    """Rebuild the trace, or ``None`` when the arrays are malformed."""
    try:
        matrix = np.asarray(arrays["records"])
        streams: List[str] = [str(name) for name in arrays["streams"]]
        if matrix.shape != (entry["num_records"], len(COLUMNS)):
            return None
        if matrix.size and matrix.min() < 0:
            return None
        records = [
            TraceRecord(
                *row[:2], _KINDS[row[2]], *row[3:12], bool(row[12]), streams[row[13]]
            )
            for row in matrix.tolist()
        ]
        return TrafficTrace(
            records,
            num_initiators=entry["num_initiators"],
            num_targets=entry["num_targets"],
            total_cycles=entry["total_cycles"],
            target_names=entry["target_names"],
            initiator_names=entry["initiator_names"],
        )
    except (KeyError, IndexError, TypeError, ValueError, ReproError):
        return None
