"""Typed per-stage artifacts of the staged synthesis pipeline.

The paper's methodology (Fig. 3) is an explicit staged flow::

    traffic collection -> window segmentation -> conflict pre-processing
        -> binding search -> validation

Each stage's output is wrapped in a small frozen dataclass carrying a
*content-addressed fingerprint*: a SHA-256 over the fingerprints of the
stage's upstream artifacts plus the canonical encoding of exactly the
configuration fields that stage consumes. Two consequences follow:

* equal inputs always produce equal fingerprints, across processes and
  Python versions (the encoding reuses
  :func:`repro.exec.fingerprint.canonical_json`), so artifacts are
  cacheable and shareable;
* a configuration change only invalidates the stages that read the
  changed field -- re-running a threshold sweep re-windows nothing, and
  editing one scenario of a suite re-collects nothing else.

The artifact types mirror the paper's stages one-to-one:

=====================  ==============================================
:class:`CollectedTraffic`   Phase 1 -- the full-crossbar traffic trace
:class:`WindowedAnalysis`   Phase 2 -- one side's windowed design problem
:class:`ConflictArtifact`   Phase 3 -- the conflict matrix
:class:`BindingArtifact`    Phase 4 -- configuration search + binding
:class:`BindReuseRecord`    Phase 4 -- recent binds of one window artifact
:class:`ReplayArtifact`     Phase 4' -- a workload replayed on the design
=====================  ==============================================
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.core.preprocess import ConflictAnalysis
from repro.core.problem import CrossbarDesignProblem
from repro.core.search import SearchOutcome
from repro.core.spec import BusBinding, CrossbarDesign, SynthesisConfig
from repro.exec.fingerprint import canonical_json, sha256_hex, trace_fingerprint
from repro.platform.metrics import LatencyStats
from repro.traffic.trace import TrafficTrace

__all__ = [
    "STAGE_SCHEMA_VERSION",
    "stage_fingerprint",
    "window_stage_spec",
    "conflict_stage_spec",
    "binding_stage_spec",
    "replay_stage_spec",
    "TraceShape",
    "TraceSource",
    "TraceDigestMismatch",
    "CollectedTraffic",
    "WindowedAnalysis",
    "ConflictArtifact",
    "BindingArtifact",
    "BindReuseEntry",
    "BindReuseRecord",
    "reuse_record_fingerprint",
    "ReplayArtifact",
]

STAGE_SCHEMA_VERSION = 1
"""Bump to invalidate every persisted stage artifact on format changes."""


def stage_fingerprint(stage: str, upstream, spec: Any) -> str:
    """Content hash of one stage execution.

    ``upstream`` is the fingerprint (or fingerprint list) of the
    artifacts the stage consumes; ``spec`` is a JSON-encodable record of
    the configuration fields the stage reads -- *only* those fields, so
    unrelated configuration changes never invalidate the stage.
    """
    payload = {
        "schema": STAGE_SCHEMA_VERSION,
        "stage": stage,
        "upstream": upstream,
        "spec": spec,
    }
    return sha256_hex(canonical_json(payload))


def window_stage_spec(
    config: SynthesisConfig, window_size: int, mirrored: bool
) -> Dict[str, Any]:
    """The configuration slice the window-segmentation stage reads."""
    return {
        "window_size": int(window_size),
        "mirrored": bool(mirrored),
        "variable_windows": config.variable_windows,
        "variable_window_ratio": config.variable_window_ratio,
    }


def conflict_stage_spec(config: SynthesisConfig) -> Dict[str, Any]:
    """The configuration slice the conflict pre-processing stage reads."""
    return {
        "overlap_threshold": config.overlap_threshold,
        "use_criticality": config.use_criticality,
    }


def binding_stage_spec(config: SynthesisConfig) -> Dict[str, Any]:
    """The configuration slice the search/binding stage reads.

    ``backend`` is a constant: the assignment DFS is the only solver,
    and the key keeps the slice's hash (and every stored binding)
    stable.
    """
    return {
        "backend": "assignment",
        "max_targets_per_bus": config.max_targets_per_bus,
        "node_limit": config.node_limit,
    }


def replay_stage_spec(
    workload_key: Dict[str, Any], design: CrossbarDesign, budget: int
) -> Dict[str, Any]:
    """What determines a latency replay: workload + fabric + budget.

    ``workload_key`` is the driver's content key
    (:meth:`repro.platform.drivers.WorkloadDriver.workload_key`), which
    covers the stimulus *and* the platform it runs on; the design enters
    through its raw bindings so equal fabrics share replays whatever
    their labels.
    """
    return {
        "workload": workload_key,
        "it": list(design.it.binding),
        "ti": list(design.ti.binding),
        "budget": int(budget),
    }


class TraceShape(NamedTuple):
    """What a collected trace looks like, without its records."""

    initiator_names: List[str]
    target_names: List[str]
    num_records: int
    total_cycles: int

    @property
    def num_initiators(self) -> int:
        return len(self.initiator_names)

    @property
    def num_targets(self) -> int:
        return len(self.target_names)

    @classmethod
    def of(cls, trace: TrafficTrace) -> "TraceShape":
        return cls(
            list(trace.initiator_names),
            list(trace.target_names),
            len(trace),
            trace.total_cycles,
        )


class TraceSource:
    """A collected trace known by its digest, loaded on first use.

    :meth:`trace` materializes the records once (thread safe) and
    returns the same object afterwards. :attr:`shape` (with the core
    names) and :attr:`digest` are the given ones until the trace is
    loaded, the loaded trace's own after: they differ once a stored
    trace had to be re-simulated. A source given no shape loads the
    trace to answer it, and one given no digest hashes the trace.
    """

    def __init__(
        self,
        load: Callable[[], TrafficTrace],
        digest: Optional[str] = None,
        shape: Optional[TraceShape] = None,
    ) -> None:
        self._load = load
        self._digest = digest
        self._shape = shape
        self._trace: Optional[TrafficTrace] = None
        self._lock = threading.Lock()

    @classmethod
    def of(cls, trace: TrafficTrace) -> "TraceSource":
        """A source for a trace already in memory."""
        source = cls(lambda: trace, shape=TraceShape.of(trace))
        source._trace = trace
        return source

    @property
    def shape(self) -> TraceShape:
        if self._shape is None:
            self.trace()
        return self._shape

    @property
    def initiator_names(self) -> List[str]:
        return self.shape.initiator_names

    @property
    def target_names(self) -> List[str]:
        return self.shape.target_names

    @property
    def digest(self) -> str:
        if self._digest is None:
            self._digest = trace_fingerprint(self.trace())
        return self._digest

    def trace(self) -> TrafficTrace:
        with self._lock:
            if self._trace is None:
                self._trace = self._load()
                self._shape = TraceShape.of(self._trace)
                # Memoized on the trace by a stored load's own check.
                self._digest = trace_fingerprint(self._trace)
            return self._trace

    def checked(self, digest: str) -> TrafficTrace:
        """The trace, loaded on first use, whose digest must be
        ``digest`` (the one a consumer is addressed by): raises
        :class:`TraceDigestMismatch` when the loaded trace's differs."""
        trace = self.trace()
        if self.digest != digest:
            raise TraceDigestMismatch(
                f"loaded trace {self.digest[:12]} is not {digest[:12]}"
            )
        return trace


class TraceDigestMismatch(Exception):
    """A deferred trace loaded with a digest other than the one its
    :class:`CollectedTraffic` is addressed by.

    Nothing computed from the trace may be stored under the old
    address. The point restarts under the source's
    :attr:`~TraceSource.digest`, which is now the loaded trace's own.
    """


@dataclass(frozen=True)
class CollectedTraffic:
    """Phase 1 output: a full-crossbar traffic trace, content-addressed
    and loaded only when a stage must compute from it.

    ``fingerprint`` is the trace's record-level content hash
    (:func:`repro.exec.fingerprint.trace_fingerprint`), so two traces
    with equal records share every downstream artifact regardless of how
    they were produced. It is fixed when the artifact is built -- for a
    stored trace, the stored digest -- and keys every downstream stage,
    so a stage served from memory or disk never touches ``source``.
    """

    source: TraceSource = field(compare=False, repr=False)
    fingerprint: str
    label: str = ""

    @classmethod
    def from_trace(
        cls, trace: TrafficTrace, label: str = ""
    ) -> "CollectedTraffic":
        return cls(TraceSource.of(trace), trace_fingerprint(trace), label)

    @property
    def trace(self) -> TrafficTrace:
        """The trace, loaded on first use and checked against
        ``fingerprint``; raises :class:`TraceDigestMismatch` when the
        loaded trace's digest differs."""
        return self.source.checked(self.fingerprint)


@dataclass(frozen=True)
class WindowedAnalysis:
    """Phase 2 output: one crossbar side's windowed design problem.

    ``mirrored`` distinguishes the target->initiator side (designed on
    the mirrored trace) from the initiator->target side.
    """

    problem: CrossbarDesignProblem
    mirrored: bool
    fingerprint: str

    def describe(self) -> str:
        return self.problem.describe()


@dataclass(frozen=True)
class ConflictArtifact:
    """Phase 3 output: the conflict matrix for one windowed analysis."""

    conflicts: ConflictAnalysis
    fingerprint: str

    def describe(self) -> str:
        return f"{self.conflicts.num_conflicts} conflicting pairs"


@dataclass(frozen=True)
class BindingArtifact:
    """Phase 4 output: the configuration search and optimized binding."""

    search: SearchOutcome
    binding: BusBinding
    fingerprint: str

    def describe(self) -> str:
        return (
            f"{self.binding.num_buses} buses, "
            f"{len(self.search.probes)} probes, "
            f"maxov {self.binding.max_bus_overlap}"
        )

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready encoding for the persistent stage store."""
        return {
            "search": {
                "num_buses": self.search.num_buses,
                "feasible_binding": list(self.search.feasible_binding),
                "lower_bound": self.search.lower_bound,
                "probes": {str(k): v for k, v in self.search.probes.items()},
            },
            "binding": {
                "binding": list(self.binding.binding),
                "num_buses": self.binding.num_buses,
                "max_bus_overlap": self.binding.max_bus_overlap,
                "optimal": self.binding.optimal,
            },
        }

    @classmethod
    def from_payload(
        cls, payload: Dict[str, Any], fingerprint: str
    ) -> "BindingArtifact":
        """Decode a payload written by :meth:`to_payload`.

        Raises ``KeyError``/``TypeError``/``ValueError`` on malformed
        payloads; the store treats those as misses.
        """
        search_payload = payload["search"]
        binding_payload = payload["binding"]
        search = SearchOutcome(
            num_buses=int(search_payload["num_buses"]),
            feasible_binding=tuple(search_payload["feasible_binding"]),
            lower_bound=int(search_payload["lower_bound"]),
            probes={
                int(k): bool(v) for k, v in search_payload["probes"].items()
            },
        )
        binding = BusBinding(
            binding=tuple(binding_payload["binding"]),
            num_buses=int(binding_payload["num_buses"]),
            max_bus_overlap=int(binding_payload["max_bus_overlap"]),
            optimal=bool(binding_payload["optimal"]),
        )
        return cls(search=search, binding=binding, fingerprint=fingerprint)


REUSE_RECORD_ENTRIES = 4
"""Computed answers a :class:`BindReuseRecord` keeps, newest first."""


@dataclass(frozen=True)
class BindReuseEntry:
    """One computed bind stage: its conflict pairs, its artifact and an
    upper bound on its Eq. 11 solve's proof-phase nodes (the nodes after
    the returned leaf, ``nodes - found_at``)."""

    pairs: FrozenSet[Tuple[int, int]]
    artifact: BindingArtifact
    proof: int


@dataclass(frozen=True)
class BindReuseRecord:
    """The last few bind answers for one window artifact and binding spec.

    Keyed by :func:`reuse_record_fingerprint`, which leaves the conflict
    configuration out: a threshold edit finds the answers of the other
    thresholds here. :meth:`PipelineRunner.bind
    <repro.pipeline.runner.PipelineRunner.bind>` reads it after its
    stage lookups miss (docs/architecture.md gives the exactness
    argument).
    """

    entries: Tuple[BindReuseEntry, ...] = ()

    def same_conflicts(self, pairs: FrozenSet) -> Optional[BindReuseEntry]:
        """The entry computed under exactly ``pairs``, if any."""
        for entry in self.entries:
            if entry.pairs == pairs:
                return entry
        return None

    def lower_bound(
        self, pairs: FrozenSet, num_buses: int
    ) -> Optional[Tuple[int, int]]:
        """The ``(objective, proof bound)`` of the optimal entry, among
        those with conflicts ``<= pairs`` and ``num_buses`` buses, with
        the highest objective (the tightest lower bound), ties to the
        smallest proof bound."""
        return max(
            (
                (entry.artifact.binding.max_bus_overlap, entry.proof)
                for entry in self.entries
                if entry.artifact.binding.optimal
                and entry.artifact.search.num_buses == num_buses
                and entry.pairs <= pairs
            ),
            key=lambda usable: (usable[0], -usable[1]),
            default=None,
        )

    def with_entry(self, entry: BindReuseEntry) -> "BindReuseRecord":
        """This record with ``entry`` first, trimmed to its bound."""
        others = [e for e in self.entries if e.pairs != entry.pairs]
        return BindReuseRecord(
            entries=tuple([entry, *others][:REUSE_RECORD_ENTRIES])
        )

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready encoding for the persistent stage store."""
        return {
            "entries": [
                {
                    "pairs": [list(pair) for pair in sorted(entry.pairs)],
                    "proof": entry.proof,
                    "artifact": entry.artifact.to_payload(),
                }
                for entry in self.entries
            ]
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "BindReuseRecord":
        """Decode a payload written by :meth:`to_payload`.

        Raises ``KeyError``/``TypeError``/``ValueError`` on malformed
        payloads; the runner treats those as misses. Entry artifacts
        carry no fingerprint: a reuse returns them under the asking
        stage's own.
        """
        entries = []
        for item in payload["entries"]:
            pairs = frozenset((int(i), int(j)) for i, j in item["pairs"])
            proof = int(item["proof"])
            if proof < 0:
                raise ValueError(f"negative proof bound {proof}")
            artifact = BindingArtifact.from_payload(item["artifact"], "")
            entries.append(BindReuseEntry(pairs, artifact, proof))
        return cls(entries=tuple(entries[:REUSE_RECORD_ENTRIES]))


def reuse_record_fingerprint(
    windowed_fingerprint: str, config: SynthesisConfig
) -> str:
    """The key of the bind reuse record of one window artifact: its
    fingerprint and the binding slice, not the conflict slice."""
    return stage_fingerprint(
        "bind-reuse", windowed_fingerprint, binding_stage_spec(config)
    )


def _stats_payload(stats: LatencyStats) -> Dict[str, Any]:
    return {
        "count": stats.count,
        "mean": stats.mean,
        "maximum": stats.maximum,
        "minimum": stats.minimum,
        "p95": stats.p95,
    }


def _stats_from_payload(payload: Dict[str, Any]) -> LatencyStats:
    return LatencyStats(
        count=int(payload["count"]),
        mean=float(payload["mean"]),
        maximum=int(payload["maximum"]),
        minimum=int(payload["minimum"]),
        p95=float(payload["p95"]),
    )


@dataclass(frozen=True)
class ReplayArtifact:
    """Latency-replay stage output: one workload simulated on one fabric.

    The artifact carries only the observed statistics -- never the live
    design or trace objects -- so it round-trips through JSON and
    persists in the artifact store's disk layer: suite re-runs and
    cross-process reruns reuse simulated latencies instead of
    re-simulating.
    """

    stats: LatencyStats
    critical_stats: LatencyStats
    finished: bool
    num_transactions: int
    simulated_cycles: int
    fingerprint: str
    label: str = ""

    def describe(self) -> str:
        mean = self.stats.mean if self.stats.count else 0.0
        return (
            f"{self.num_transactions} packets, avg latency {mean:.1f} cy, "
            f"{'finished' if self.finished else 'budget-capped'}"
        )

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready encoding for the persistent stage store."""
        return {
            "stats": _stats_payload(self.stats),
            "critical_stats": _stats_payload(self.critical_stats),
            "finished": self.finished,
            "num_transactions": self.num_transactions,
            "simulated_cycles": self.simulated_cycles,
            "label": self.label,
        }

    @classmethod
    def from_payload(
        cls, payload: Dict[str, Any], fingerprint: str
    ) -> "ReplayArtifact":
        """Decode a payload written by :meth:`to_payload`.

        Raises ``KeyError``/``TypeError``/``ValueError`` on malformed
        payloads; the store treats those as misses.
        """
        return cls(
            stats=_stats_from_payload(payload["stats"]),
            critical_stats=_stats_from_payload(payload["critical_stats"]),
            finished=bool(payload["finished"]),
            num_transactions=int(payload["num_transactions"]),
            simulated_cycles=int(payload["simulated_cycles"]),
            fingerprint=fingerprint,
            label=str(payload.get("label", "")),
        )
