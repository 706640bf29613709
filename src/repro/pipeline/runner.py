"""The staged pipeline runner.

:class:`PipelineRunner` executes the paper's Fig. 3 flow stage by stage
through an :class:`~repro.pipeline.store.ArtifactStore`. Every stage
method first derives the output's content-addressed fingerprint (from
the upstream artifacts' fingerprints plus the configuration slice the
stage reads), then:

1. returns the in-memory artifact if the store already holds it,
2. else decodes a persisted per-stage entry when the store has a disk
   layer and the stage serializes (search/binding),
3. else executes the stage and stores the artifact in both layers.

Each path is tallied per stage by
:func:`~repro.pipeline.store.record_stage` into the metrics registry;
a run's table (what incremental re-synthesis tests assert on and
``--explain-cache`` prints) is that family's growth over the run.

Persistence is best-effort by contract: the disk layers underneath
(:meth:`ResultCache.put_json`, :meth:`ArtifactStore.put_arrays`) retry
and then swallow storage faults, so a full disk or injected
``io.transient`` fault costs future warm starts -- the stage recomputes
next time -- never the run in flight or the correctness of its report.

Every solve entry point in the repository drives this runner:
:class:`~repro.core.synthesis.CrossbarSynthesizer` composes
``collect -> window -> conflicts -> bind`` per crossbar side, and the
:class:`~repro.exec.engine.ExecutionEngine` solves sweep/batch points
on the one runner it owns (so serial sweeps share windowing artifacts
across points, and with a cache directory across processes). The CLI,
the scenario suite runner and every daemon job run on that runner, so
editing a suite reuses the unchanged scenarios' stages.
:meth:`PipelineRunner.design_fingerprint` is also the address under
which the engine caches a whole solved point.

There is one kind of runner: runners differ only in the store they are
given. A runner never retains a raw trace (:meth:`PipelineRunner.collect`
wraps it without storing it; downstream stages key off its content
fingerprint), and only the record-less ``bind-merged`` stage memoizes
a binding under its own stage fingerprint.

Every runner keeps a **bind reuse record** per window artifact (:class:`~repro.pipeline.artifacts.BindReuseRecord`,
keyed by :func:`~repro.pipeline.artifacts.reuse_record_fingerprint`:
the window fingerprint and the binding slice, not the conflict slice),
in memory and, with a disk layer, as a stage entry. It is
:meth:`PipelineRunner.bind`'s only lookup, and each computed answer is
written to it. An entry with the same conflict pairs is returned outright (a
memo or disk hit, never ``computed``). Otherwise, for an ``optimal``
entry under a subset of the pairs with the same bus count, the Eq. 11
DFS runs with ``lower_bound`` set to its objective and stops at the
first leaf that reaches it, which is the full search's answer; the
result is kept only when the leaf's ``found_at`` (its node ordinal,
:attr:`~repro.core.assignment.AssignmentResult.found_at`) plus the
entry's recorded proof-phase bound fits ``node_limit``, i.e. the full
search would have finished and proved it. docs/architecture.md gives
the argument; ``repro_bind_reuse_total{tier}`` counts both tiers.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.binding import bind_minimum_buses
from repro.core.instrumentation import record_bind_reuse
from repro.core.preprocess import ConflictAnalysis, build_conflicts
from repro.core.problem import CrossbarDesignProblem
from repro.core.spec import CrossbarDesign, SynthesisConfig
from repro.core.validate import audit_binding
from repro.pipeline.artifacts import (
    BindingArtifact,
    BindReuseEntry,
    BindReuseRecord,
    CollectedTraffic,
    ConflictArtifact,
    ReplayArtifact,
    WindowedAnalysis,
    binding_stage_spec,
    conflict_stage_spec,
    replay_stage_spec,
    reuse_record_fingerprint,
    stage_fingerprint,
    window_stage_spec,
)
from repro.errors import ConfigurationError, SynthesisError
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.pipeline.store import ArtifactStore, record_stage
from repro.platform.drivers import WorkloadDriver, simulate_workload
from repro.traffic.criticality import CriticalityReport
from repro.traffic.trace import TrafficTrace

__all__ = [
    "SideArtifacts",
    "PipelineDesign",
    "PipelineRunner",
    "describe_stages",
    "timed_stage",
]

_STAGE_SECONDS = _metrics.histogram(
    "repro_stage_seconds",
    "Self wall-clock seconds per executed (non-cached) pipeline stage: "
    "its own time minus that of the stages nested in it.",
    ("stage",),
)


_NESTING = threading.local()


def timed_stage(stage: str, fingerprint: str, compute):
    """Run one stage compute under a ``pipeline.<stage>`` span and feed
    its self time into ``repro_stage_seconds``.

    Only *executed* stages pass through here -- cache hits stay on
    their untimed fast path, so the histogram measures real stage cost,
    not lookup cost. Stages nest (an application trace's ``collect``
    runs inside the ``collect`` of a load-scaled or thinned scenario
    trace built from it, a lazy trace load inside a ``window``), so
    each thread keeps a stack of the seconds its open stages spent in
    nested ones; a stage records its wall time minus those, and the
    histogram's sums partition the run instead of counting nested time
    twice.
    """
    nested = getattr(_NESTING, "stack", None)
    if nested is None:
        nested = _NESTING.stack = []
    nested.append(0.0)
    begin = time.perf_counter()
    try:
        with _tracing.span(
            f"pipeline.{stage}", fingerprint=fingerprint[:12]
        ):
            artifact = compute()
    finally:
        elapsed = time.perf_counter() - begin
        inner = nested.pop()
    if nested:
        nested[-1] += elapsed
    _STAGE_SECONDS.observe(elapsed - inner, stage=stage)
    return artifact


@dataclass(frozen=True)
class SideArtifacts:
    """One crossbar side's stage chain (phases 2-4)."""

    windowed: WindowedAnalysis
    conflicts: ConflictArtifact
    binding: BindingArtifact


@dataclass(frozen=True)
class PipelineDesign:
    """The full staged flow's outcome for one synthesis point."""

    collected: CollectedTraffic
    it: SideArtifacts
    ti: SideArtifacts
    design: CrossbarDesign
    fingerprint: str


class PipelineRunner:
    """Executes pipeline stages through an artifact store (see module
    docstring for the lookup discipline).

    Parameters
    ----------
    store:
        The artifact store; a fresh in-memory store by default.
    """

    def __init__(self, store: Optional[ArtifactStore] = None) -> None:
        self.store = store if store is not None else ArtifactStore()

    # -- phase 1: traffic collection ----------------------------------

    def collect(
        self, trace: Union[TrafficTrace, CollectedTraffic], label: str = ""
    ) -> CollectedTraffic:
        """Wrap a full-crossbar trace as the pipeline's root artifact.

        The fingerprint is the trace's record-level content hash, so
        equal traces -- however produced -- share every downstream
        artifact. The wrapper is not stored, so no store pins a caller's
        trace alive. A :class:`CollectedTraffic` passes through as is: a
        deferred one keeps its trace unloaded (see :meth:`window`).
        """
        if isinstance(trace, CollectedTraffic):
            return trace
        return CollectedTraffic.from_trace(trace, label=label)

    # -- phase 2: window segmentation / overlap extraction ------------

    def window(
        self,
        collected: CollectedTraffic,
        config: SynthesisConfig,
        window_size: int,
        mirrored: bool,
    ) -> WindowedAnalysis:
        """Segment one crossbar side into windows and extract the
        design problem (``comm``/``wo`` tensors, criticality).

        ``mirrored=True`` is the target->initiator side, analyzed on the
        mirrored trace per the paper's "designed in a similar fashion".

        When the store has a disk layer, the windowed tensors persist as
        a compressed ``.npz`` sidecar: another process re-analyzing the
        same trace rebuilds the design problem straight from the arrays
        without re-windowing (or even holding) the trace.

        Lookup order: store memo -> ``.npz`` sidecar -> compute. Every
        path yields byte-identical tensors; the tiers differ only in
        cost. Only the compute reads ``collected.trace``, so it alone
        loads a deferred trace; a load whose digest is not
        ``collected.fingerprint`` raises
        :class:`~repro.pipeline.artifacts.TraceDigestMismatch` before
        anything is stored.
        """
        spec = window_stage_spec(config, window_size, mirrored)
        fingerprint = stage_fingerprint("window", collected.fingerprint, spec)
        cached = self.store.get(fingerprint)
        if cached is not None:
            record_stage("memo_hit", "window")
            return cached
        arrays = self.store.get_arrays(fingerprint)
        if arrays is not None:
            artifact = _window_from_arrays(arrays, fingerprint, mirrored)
            if artifact is not None:
                record_stage("disk_hit", "window")
                self.store.put(fingerprint, artifact)
                return artifact
        # Loaded before the tally: a stale digest raises right here.
        loaded = collected.trace
        record_stage("computed", "window")

        def _compute() -> WindowedAnalysis:
            trace = loaded.mirrored() if mirrored else loaded
            return WindowedAnalysis(
                problem=self._problem_for(trace, window_size, config),
                mirrored=mirrored,
                fingerprint=fingerprint,
            )

        artifact = timed_stage("window", fingerprint, _compute)
        self.store.put(fingerprint, artifact)
        self.store.put_arrays(fingerprint, _window_arrays(artifact))
        return artifact

    @staticmethod
    def _problem_for(
        trace: TrafficTrace, window: int, config: SynthesisConfig
    ) -> CrossbarDesignProblem:
        if not config.variable_windows:
            return CrossbarDesignProblem.from_trace(trace, window)
        from repro.traffic.qos import phase_aligned_boundaries

        boundaries = phase_aligned_boundaries(
            trace,
            min_window=max(1, window // config.variable_window_ratio),
            max_window=window,
        )
        return CrossbarDesignProblem.from_trace_boundaries(trace, boundaries)

    # -- phase 3: conflict pre-processing -----------------------------

    def conflicts(
        self, windowed: WindowedAnalysis, config: SynthesisConfig
    ) -> ConflictArtifact:
        """Build the conflict matrix for one windowed analysis."""
        spec = conflict_stage_spec(config)
        fingerprint = stage_fingerprint(
            "conflicts", windowed.fingerprint, spec
        )
        cached = self.store.get(fingerprint)
        if cached is not None:
            record_stage("memo_hit", "conflicts")
            return cached
        record_stage("computed", "conflicts")
        artifact = timed_stage(
            "conflicts",
            fingerprint,
            lambda: ConflictArtifact(
                conflicts=build_conflicts(windowed.problem, config),
                fingerprint=fingerprint,
            ),
        )
        self.store.put(fingerprint, artifact)
        return artifact

    # -- phase 4: configuration search + optimal binding --------------

    def bind(
        self,
        windowed: WindowedAnalysis,
        conflicts: ConflictArtifact,
        config: SynthesisConfig,
    ) -> BindingArtifact:
        """Search the minimum configuration and optimize the binding.

        The window artifact's bind reuse record (see the module
        docstring) is the only lookup: it answers an unchanged conflict
        set outright and stops a grown one's Eq. 11 search at a stored
        optimum when that is exact.
        """
        fingerprint = stage_fingerprint(
            "bind",
            [windowed.fingerprint, conflicts.fingerprint],
            binding_stage_spec(config),
        )
        return self._bind_at(
            "bind",
            fingerprint,
            windowed.problem,
            conflicts.conflicts,
            config,
            record_key=reuse_record_fingerprint(windowed.fingerprint, config),
        )

    def bind_merged(
        self,
        problem: CrossbarDesignProblem,
        conflicts: ConflictAnalysis,
        config: SynthesisConfig,
        upstream: Sequence[str],
        merge_spec: Dict[str, Any],
    ) -> BindingArtifact:
        """The robust multi-scenario solve as a cacheable stage.

        ``upstream`` lists the per-scenario analysis fingerprints the
        merged problem was built from and ``merge_spec`` the merge
        policy/weights, so the fingerprint is content-addressed without
        hashing the merged tensors themselves.
        """
        fingerprint = stage_fingerprint(
            "bind-merged",
            list(upstream),
            {**binding_stage_spec(config), **merge_spec},
        )
        return self._bind_at(
            "bind-merged", fingerprint, problem, conflicts, config
        )

    def _bind_at(
        self,
        stage: str,
        fingerprint: str,
        problem: CrossbarDesignProblem,
        conflicts: ConflictAnalysis,
        config: SynthesisConfig,
        record_key: Optional[str] = None,
    ) -> BindingArtifact:
        if record_key is None:
            cached = self._lookup(stage, fingerprint, BindingArtifact.from_payload)
            if cached is not None:
                return cached
        record, from_disk = self._reuse_record(record_key)
        pairs = frozenset(conflicts.reasons)
        same = record.same_conflicts(pairs)
        if same is not None and not audit_binding(
            problem,
            conflicts,
            same.artifact.binding.binding,
            config.max_targets_per_bus,
        ):
            # Tier 1: the same inputs of a deterministic stage.
            if from_disk:
                record_stage("disk_hit", stage)
            else:
                record_stage("memo_hit", stage)
            record_bind_reuse("same_conflicts")
            return replace(same.artifact, fingerprint=fingerprint)
        record_stage("computed", stage)
        search, binding, proof = timed_stage(
            stage,
            fingerprint,
            lambda: bind_minimum_buses(
                problem,
                conflicts,
                config,
                lambda num_buses: record.lower_bound(pairs, num_buses),
            ),
        )
        artifact = BindingArtifact(
            search=search, binding=binding, fingerprint=fingerprint
        )
        if record_key is None:
            self.store.put(fingerprint, artifact)
            self.store.put_payload(fingerprint, artifact.to_payload())
        else:
            record = record.with_entry(BindReuseEntry(pairs, artifact, proof))
            self.store.put(record_key, record)
            self.store.put_payload(record_key, record.to_payload())
        return artifact

    def _lookup(self, stage: str, fingerprint: str, decode) -> Optional[Any]:
        """The artifact at ``fingerprint`` from memory, else ``decode``d
        from its persisted stage entry, else ``None``; a hit is tallied
        under ``stage``."""
        cached = self.store.get(fingerprint)
        if cached is not None:
            record_stage("memo_hit", stage)
            return cached
        payload = self.store.get_payload(fingerprint)
        if payload is None:
            return None
        try:
            artifact = decode(payload, fingerprint)
        except (KeyError, TypeError, ValueError):
            return None  # malformed persisted stage entry: recompute
        record_stage("disk_hit", stage)
        self.store.put(fingerprint, artifact)
        return artifact

    def _reuse_record(
        self, key: Optional[str]
    ) -> Tuple[BindReuseRecord, bool]:
        """The bind reuse record at ``key`` (empty without one or when
        malformed) and whether it came from disk."""
        if key is None:
            return BindReuseRecord(), False
        record = self.store.get(key)
        if record is not None:
            return record, False
        payload = self.store.get_payload(key)
        if payload is None:
            return BindReuseRecord(), False
        try:
            record = BindReuseRecord.from_payload(payload)
        except (KeyError, TypeError, ValueError):
            return BindReuseRecord(), False  # malformed record: a miss
        self.store.put(key, record)
        return record, True

    # -- composite drivers --------------------------------------------

    def _side(
        self, windowed: WindowedAnalysis, config: SynthesisConfig
    ) -> SideArtifacts:
        """Phases 3-4 for one windowed crossbar side."""
        conflicts = self.conflicts(windowed, config)
        binding = self.bind(windowed, conflicts, config)
        return SideArtifacts(
            windowed=windowed, conflicts=conflicts, binding=binding
        )

    @staticmethod
    def design_fingerprint(
        trace_digest: str,
        config: SynthesisConfig,
        window_size: int,
    ) -> str:
        """The end-to-end design fingerprint, derived without executing.

        Stage fingerprints are pure functions of the upstream
        fingerprints plus each stage's configuration slice, so the final
        design fingerprint is computable from the trace's content digest
        alone -- no windowing, no solving. It is the address of the
        engine's whole-result cache
        (:meth:`~repro.exec.engine.ExecutionEngine.lookup_or_solve`), and
        the ``repro serve`` daemon advertises it to clients. The value
        matches :attr:`PipelineDesign.fingerprint` of an executed flow
        over a trace with digest ``trace_digest``.
        """
        side_fingerprints = []
        for mirrored in (False, True):  # it side first, then ti
            windowed = stage_fingerprint(
                "window",
                trace_digest,
                window_stage_spec(config, window_size, mirrored),
            )
            conflicts = stage_fingerprint(
                "conflicts", windowed, conflict_stage_spec(config)
            )
            side_fingerprints.append(
                stage_fingerprint(
                    "bind", [windowed, conflicts], binding_stage_spec(config)
                )
            )
        return stage_fingerprint("design", side_fingerprints, None)

    def design(
        self,
        trace: Union[TrafficTrace, CollectedTraffic],
        config: SynthesisConfig,
        window_size: int,
        label: str = "",
    ) -> PipelineDesign:
        """The full staged flow for both crossbars of one point.

        A deferred ``trace`` whose loaded digest differs from its
        fingerprint raises
        :class:`~repro.pipeline.artifacts.TraceDigestMismatch` before
        any stage is stored under that fingerprint (see :meth:`window`);
        the caller restarts the point under the source's new digest.
        """
        with _tracing.span(
            "pipeline.design", window=window_size, label=label
        ):
            return self._design(trace, config, window_size, label)

    def _design(
        self,
        trace: Union[TrafficTrace, CollectedTraffic],
        config: SynthesisConfig,
        window_size: int,
        label: str = "",
    ) -> PipelineDesign:
        collected = self.collect(trace, label=label)
        # The windows are the only stages that read the trace: both run
        # first, so a stale digest surfaces before anything downstream
        # is stored under it.
        windows = [
            self.window(collected, config, window_size, mirrored)
            for mirrored in (False, True)
        ]
        it, ti = [self._side(windowed, config) for windowed in windows]
        design = CrossbarDesign(
            it=it.binding.binding, ti=ti.binding.binding, label="windowed"
        )
        fingerprint = stage_fingerprint(
            "design",
            [it.binding.fingerprint, ti.binding.fingerprint],
            None,
        )
        return PipelineDesign(
            collected=collected,
            it=it,
            ti=ti,
            design=design,
            fingerprint=fingerprint,
        )

    # -- latency-replay stage ------------------------------------------

    def replay_fingerprint(
        self,
        driver: WorkloadDriver,
        design: CrossbarDesign,
        max_cycles: Optional[int] = None,
    ) -> Optional[str]:
        """The replay stage's content fingerprint, or ``None`` when the
        workload cannot be content-addressed (unkeyed program drivers)."""
        budget = int(max_cycles or driver.sim_cycles)
        try:
            workload_key = driver.workload_key()
        except ConfigurationError:
            return None
        return stage_fingerprint(
            "replay", None, replay_stage_spec(workload_key, design, budget)
        )

    def replay(
        self,
        driver: WorkloadDriver,
        design: CrossbarDesign,
        max_cycles: Optional[int] = None,
        label: str = "",
    ) -> ReplayArtifact:
        """Simulate a workload on a candidate fabric, as a cached stage.

        Any :class:`~repro.platform.drivers.WorkloadDriver` replays:
        program-driven applications and trace-driven recorded workloads
        take the same path and share the same store. Content-addressed
        replays persist through the disk layer; unkeyed workloads are
        simulated but never cached.
        """
        budget = int(max_cycles or driver.sim_cycles)
        fingerprint = self.replay_fingerprint(driver, design, budget)
        if fingerprint is not None:
            cached = self._lookup("replay", fingerprint, ReplayArtifact.from_payload)
            if cached is not None:
                return cached
        record_stage("computed", "replay")
        artifact = timed_stage(
            "replay",
            fingerprint or "",
            lambda: _run_replay(
                driver, design, budget, fingerprint or "", label
            ),
        )
        if fingerprint is not None:
            self.store.put(fingerprint, artifact)
            self.store.put_payload(fingerprint, artifact.to_payload())
        return artifact


def _run_replay(
    driver: WorkloadDriver,
    design: CrossbarDesign,
    budget: int,
    fingerprint: str,
    label: str = "",
) -> ReplayArtifact:
    """Execute one replay simulation and distill the artifact."""
    result = simulate_workload(
        driver, design.it.as_list(), design.ti.as_list(), budget
    )
    return ReplayArtifact(
        stats=result.latency_stats(),
        critical_stats=result.latency_stats(critical_only=True),
        finished=result.finished,
        num_transactions=result.num_transactions,
        simulated_cycles=result.simulated_cycles,
        fingerprint=fingerprint,
        label=label or driver.label,
    )


def _window_arrays(artifact: WindowedAnalysis) -> Dict[str, np.ndarray]:
    """Encode a windowed analysis as plain tensors for the npz sidecar."""
    problem = artifact.problem
    pairs = np.asarray(
        problem.criticality.conflicting_pairs, dtype=np.int64
    ).reshape(-1, 2)
    return {
        "comm": np.asarray(problem.comm, dtype=np.int64),
        "wo": np.asarray(problem.wo, dtype=np.int64),
        "capacities": np.asarray(problem.capacities, dtype=np.int64),
        "window_size": np.asarray([problem.window_size], dtype=np.int64),
        "mirrored": np.asarray([int(artifact.mirrored)], dtype=np.int64),
        "critical_targets": np.asarray(
            problem.criticality.critical_targets, dtype=np.int64
        ),
        "conflicting_pairs": pairs,
        "target_names": np.asarray(problem.target_names, dtype=np.str_),
    }


def _window_from_arrays(
    arrays: Dict[str, np.ndarray], fingerprint: str, mirrored: bool
) -> Optional[WindowedAnalysis]:
    """Rebuild a windowed analysis from a sidecar, or ``None`` when the
    arrays are malformed or belong to the other crossbar side."""
    try:
        if int(arrays["mirrored"][0]) != int(mirrored):
            return None
        criticality = CriticalityReport(
            critical_targets=tuple(
                int(target) for target in arrays["critical_targets"]
            ),
            conflicting_pairs=tuple(
                (int(i), int(j))
                for i, j in np.asarray(arrays["conflicting_pairs"]).reshape(
                    -1, 2
                )
            ),
        )
        problem = CrossbarDesignProblem(
            comm=np.asarray(arrays["comm"], dtype=np.int64),
            wo=np.asarray(arrays["wo"], dtype=np.int64),
            window_size=int(arrays["window_size"][0]),
            criticality=criticality,
            target_names=tuple(str(name) for name in arrays["target_names"]),
            capacities=np.asarray(arrays["capacities"], dtype=np.int64),
        )
    except (KeyError, IndexError, TypeError, ValueError, SynthesisError):
        return None
    return WindowedAnalysis(
        problem=problem, mirrored=mirrored, fingerprint=fingerprint
    )


def describe_stages(design: PipelineDesign) -> List[Tuple[str, str, str]]:
    """(stage, fingerprint, summary) rows for ``repro pipeline inspect``."""
    collected = design.collected
    shape = collected.source.shape
    rows: List[Tuple[str, str, str]] = [
        (
            "collect",
            collected.fingerprint,
            f"{shape.num_records} records, {shape.total_cycles} cycles",
        )
    ]
    for side_name, side in (("it", design.it), ("ti", design.ti)):
        rows.append(
            (
                f"window[{side_name}]",
                side.windowed.fingerprint,
                side.windowed.describe(),
            )
        )
        rows.append(
            (
                f"conflicts[{side_name}]",
                side.conflicts.fingerprint,
                side.conflicts.describe(),
            )
        )
        rows.append(
            (
                f"bind[{side_name}]",
                side.binding.fingerprint,
                side.binding.describe(),
            )
        )
    rows.append(
        (
            "design",
            design.fingerprint,
            f"{design.design.it.num_buses} IT + "
            f"{design.design.ti.num_buses} TI buses",
        )
    )
    return rows
