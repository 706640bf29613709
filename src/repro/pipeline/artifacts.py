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
:class:`ReplayArtifact`     Phase 4' -- a workload replayed on the design
=====================  ==============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

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
    "warm_hint_key",
    "replay_stage_spec",
    "CollectedTraffic",
    "WindowedAnalysis",
    "ConflictArtifact",
    "BindingArtifact",
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
    """The configuration slice the search/binding stage reads."""
    return {
        "backend": config.backend,
        "max_targets_per_bus": config.max_targets_per_bus,
        "node_limit": config.node_limit,
    }


def warm_hint_key(
    stage: str, problem: CrossbarDesignProblem, config: SynthesisConfig
) -> str:
    """Content key for the binding stage's warm-start hint slot.

    Deliberately *coarser* than the stage fingerprint: it hashes the
    problem's shape (target count, window size) and the binding-stage
    configuration slice, but not the traffic content. An edited suite
    perturbs the traffic -- missing the artifact cache, which is
    correct, the answer may change -- while still hitting this slot, so
    the previous solve's binding seeds the new solve. Hints are
    advisory and re-validated by the solver, which is what makes this
    coarseness safe.
    """
    payload = {
        "kind": "warm-hint",
        "schema": STAGE_SCHEMA_VERSION,
        "stage": stage,
        "targets": int(problem.num_targets),
        "window_size": int(problem.window_size),
        "spec": binding_stage_spec(config),
    }
    return sha256_hex(canonical_json(payload))


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


@dataclass(frozen=True)
class CollectedTraffic:
    """Phase 1 output: a full-crossbar traffic trace, content-addressed.

    ``fingerprint`` is the trace's record-level content hash
    (:func:`repro.exec.fingerprint.trace_fingerprint`), so two traces
    with equal records share every downstream artifact regardless of how
    they were produced.
    """

    trace: TrafficTrace
    fingerprint: str
    label: str = ""

    @classmethod
    def from_trace(
        cls, trace: TrafficTrace, label: str = ""
    ) -> "CollectedTraffic":
        return cls(trace=trace, fingerprint=trace_fingerprint(trace), label=label)


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
