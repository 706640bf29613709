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
  models, an application program or a traffic generator changes the
  traffic they produce,
* :data:`~repro.exec.fingerprint.CACHE_SCHEMA_VERSION`, which the stored
  digest depends on.

Generated traces -- a scenario's profile trace, or a load-scaled or
thinned application trace -- are keyed the same way by their builder's
inputs (:func:`generated_key`: the scenario's source, parameters, load
scale, critical targets and name, plus the same salt and schema), so a
warm suite run generates and hashes none of them.

One entry lives in the artifact store's disk layer under that key: a
JSON payload with the trace's digest, shape and core names, plus the
records as a columnar integer matrix in a tensor sidecar. A lookup
answers with a :class:`~repro.pipeline.artifacts.TraceSource` -- the
digest, core names and record and cycle counts up front, the records
only when :meth:`~repro.pipeline.artifacts.TraceSource.trace` is
called. A whole-result cache hit therefore never loads, simulates or
hashes a trace, and neither does a point whose window artifacts are
stored: the pipeline carries the stored digest and calls the loader
only from a window stage that misses both memory and its ``.npz``
sidecar, so such a point never loads, decodes or hashes its trace.

A loaded trace is re-fingerprinted and must match the stored digest.
Anything else -- an unreadable payload, a missing or truncated sidecar,
a digest mismatch -- drops the entry and rebuilds the trace (the
source then reports the new trace's digest, and a point addressed by
the stored one restarts under it): a cache may cost time, never change
an answer. The read, decode and check run under one
``pipeline.collect.load`` span.
Only content-addressable program workloads (default registry builds)
are cached, and they share the registry's per-process simulation memo
(:func:`~repro.apps.registry.default_full_crossbar_trace`); customized
builds simulate every time. Without a disk layer nothing is encoded or
hashed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.exec.fingerprint import CACHE_SCHEMA_VERSION, trace_fingerprint
from repro.obs import tracing as _tracing
from repro.pipeline.artifacts import TraceShape, TraceSource, stage_fingerprint
from repro.pipeline.runner import timed_stage
from repro.pipeline.store import ArtifactStore
from repro.traffic.trace import COLUMNS, TrafficTrace

__all__ = [
    "SIMULATOR_SALT",
    "TraceSource",
    "CollectStage",
    "collect_key",
    "generated_key",
]

SIMULATOR_SALT = 1
"""Version of the traffic the simulator produces for a given input.

Part of every collect key. Bump it -- together with the golden digests
in ``tests/pipeline/test_collect_stage.py`` -- whenever a change to the
simulator, the platform models, an application program, a traffic
generator (:mod:`repro.traffic.synthetic`, :mod:`repro.traffic.profiles`)
or the thinning of application traces moves a recorded or generated
trace, so no entry written before the change is ever read."""

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


def generated_key(spec: Dict[str, Any]) -> str:
    """The key of a generated trace built from ``spec``: the builder's
    inputs plus the salt and schema every collect key carries."""
    return stage_fingerprint(
        _STAGE,
        None,
        {
            "generated": spec,
            "simulator": SIMULATOR_SALT,
            "trace_schema": CACHE_SCHEMA_VERSION,
        },
    )


class CollectStage:
    """Phase-1 collection behind an input-keyed store.

    Two kinds of trace live here: program-driven full-crossbar
    collections (:meth:`source`, keyed by :func:`collect_key`) and
    generated ones (:meth:`generated`, keyed by :func:`generated_key`:
    scenario traces built from a profile or from a thinned application
    trace). Both share one entry format and one lookup order per call:
    the store's in-memory layer (``memo_hit``), its disk layer
    (``disk_hit``), then a build (``computed``); :meth:`lookup` stops
    before the build -- tallied under the ``collect`` stage of the
    store's :class:`~repro.pipeline.store.StageCounters`. A rebuild
    after a failed load tallies ``computed`` as well. ``computed`` means
    the trace came from the simulator or a generator, not from this
    store; the registry's per-process memo answers a default build
    simulated earlier in the same process.
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
        if key is None:
            return None
        return self._stored(key, _simulator(application, key))

    def source(self, application) -> TraceSource:
        """The full-crossbar trace of ``application`` as a source: the
        stored one, else a fresh simulation (persisted when keyed)."""
        key = collect_key(application)
        return self._source(key, _simulator(application, key))

    def generated(
        self, spec: Dict[str, Any], build: Callable[[], TrafficTrace]
    ) -> TraceSource:
        """The trace ``build`` makes, as a source filed under ``spec``.

        ``spec`` must cover everything the built records depend on
        beyond the generators and the simulator themselves (which
        :data:`SIMULATOR_SALT` covers): the stored entry answers every
        later call with an equal spec, and ``build`` runs only when no
        entry is stored or a stored one fails to load.
        """
        return self._source(generated_key(spec), build)

    def record(self, application, trace: TrafficTrace) -> TraceSource:
        """``trace`` as a source, filed as ``application``'s collection.

        For a full-crossbar run simulated outside this stage (``repro
        design --validate`` needs the run itself, not just its trace).
        The trace is hashed; a stored entry with that digest is kept,
        any other is rewritten, so a later :meth:`source` reads the
        entry instead of simulating again.
        """
        self.counters.record_computed(_STAGE)
        source = TraceSource.of(trace)
        key = collect_key(application)
        if key is None:
            return source
        entry = _read_entry(self.store.get_payload(key))
        if entry is None or entry["digest"] != source.digest:
            self._persist(key, trace)
        self.store.put(key, source)
        return source

    def _source(
        self, key: Optional[str], build: Callable[[], TrafficTrace]
    ) -> TraceSource:
        """The stored source under ``key``, else a fresh build
        (persisted and kept when keyed)."""
        if key is None:
            return TraceSource.of(self._build("", build))
        source = self._stored(key, build)
        if source is None:
            source = TraceSource.of(self._build(key, build))
            self.store.put(key, source)
        return source

    def _stored(
        self, key: str, build: Callable[[], TrafficTrace]
    ) -> Optional[TraceSource]:
        cached = self.store.get(key)
        if cached is not None:
            self.counters.record_memo_hit(_STAGE)
            return cached
        entry = _read_entry(self.store.get_payload(key))
        if entry is None:
            return None
        self.counters.record_disk_hit(_STAGE)
        source = TraceSource(
            lambda: self._load(key, entry, build),
            digest=entry["digest"],
            shape=TraceShape(
                entry["initiator_names"],
                entry["target_names"],
                entry["num_records"],
                entry["total_cycles"],
            ),
        )
        self.store.put(key, source)
        return source

    def _build(self, key: str, build: Callable[[], TrafficTrace]) -> TrafficTrace:
        """A fresh trace, persisted under ``key`` when keyed; the
        persist step (hashing and encoding) is part of the stage."""

        def run() -> TrafficTrace:
            trace = build()
            if key:
                self._persist(key, trace)
            return trace

        self.counters.record_computed(_STAGE)
        return timed_stage(_STAGE, key, run)

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

    def _load(
        self, key: str, entry: Dict[str, Any], build: Callable[[], TrafficTrace]
    ) -> TrafficTrace:
        with _tracing.span("pipeline.collect.load", records=entry["num_records"]):
            arrays = self.store.get_arrays(key)
            trace = _decode(arrays, entry) if arrays is not None else None
            if trace is not None and trace_fingerprint(trace) == entry["digest"]:
                return trace
        self.store.drop_arrays(key)
        return self._build(key, build)


def _simulator(application, key: Optional[str]) -> Callable[[], TrafficTrace]:
    """How ``application``'s full-crossbar trace is simulated: a keyed
    build is a default registry build and shares the process-wide memo
    with every other consumer; any other simulates every time."""
    if key is None:
        return lambda: application.simulate_full_crossbar().trace

    def simulate() -> TrafficTrace:
        from repro.apps.registry import default_full_crossbar_trace

        return default_full_crossbar_trace(application.registry_key)

    return simulate


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
    """The trace's matrix (as ``int32`` when every value fits) plus its
    stream table."""
    matrix = trace.columns
    if not matrix.size or matrix.max() <= np.iinfo(np.int32).max:
        matrix = matrix.astype(np.int32)
    return {
        "records": matrix,
        "streams": np.asarray(trace.streams, dtype=np.str_),
    }


def _decode(
    arrays: Dict[str, np.ndarray], entry: Dict[str, Any]
) -> Optional[TrafficTrace]:
    """Rebuild the trace, or ``None`` when the arrays are malformed."""
    try:
        matrix = np.asarray(arrays["records"])
        if matrix.shape != (entry["num_records"], len(COLUMNS)):
            return None
        return TrafficTrace.from_columns(
            matrix,
            arrays["streams"].tolist(),
            num_initiators=entry["num_initiators"],
            num_targets=entry["num_targets"],
            total_cycles=entry["total_cycles"],
            target_names=entry["target_names"],
            initiator_names=entry["initiator_names"],
        )
    except (KeyError, IndexError, TypeError, ValueError, ReproError):
        return None
