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

Each path is tallied per stage in the store's
:class:`~repro.pipeline.store.StageCounters`, which is what incremental
re-synthesis tests assert on and ``--explain-cache`` prints.

Persistence is best-effort by contract: the disk layers underneath
(:meth:`ResultCache.put_json`, :meth:`ArtifactStore.put_arrays`) retry
and then swallow storage faults, so a full disk or injected
``io.transient`` fault costs future warm starts -- the stage recomputes
next time -- never the run in flight or the correctness of its report.

Every solve entry point in the repository drives this runner:
:class:`~repro.core.synthesis.CrossbarSynthesizer` composes
``collect -> window -> conflicts -> bind`` per crossbar side, the
:class:`~repro.exec.engine.ExecutionEngine` solves sweep/batch points
through the synthesizer (so serial sweeps share windowing artifacts
across points), and the scenario suite runner keeps one runner alive
across runs so editing a suite reuses the unchanged scenarios' stages.

A process-global runner (:func:`shared_runner`) memoizes the
window/conflict *analysis* stages only: search/binding results are
deliberately recomputed there so solver-level observability (solve
counters, benchmarks) keeps meaning "this point was solved", and
collection artifacts are not retained so the global store never pins
callers' traces in memory. Callers that want binding or trace reuse --
the suite runner, or anyone constructing a :class:`PipelineRunner`
explicitly -- opt in per runner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.binding import optimize_binding
from repro.core.preprocess import ConflictAnalysis, build_conflicts
from repro.core.problem import CrossbarDesignProblem
from repro.core.search import search_minimum_buses
from repro.core.spec import CrossbarDesign, SynthesisConfig
from repro.core.validate import audit_binding
from repro.pipeline.artifacts import (
    BindingArtifact,
    CollectedTraffic,
    ConflictArtifact,
    ReplayArtifact,
    WindowedAnalysis,
    binding_stage_spec,
    conflict_stage_spec,
    replay_stage_spec,
    stage_fingerprint,
    warm_hint_key,
    window_stage_spec,
)
from repro.errors import ConfigurationError, SynthesisError
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.pipeline.store import ArtifactStore
from repro.platform.drivers import WorkloadDriver, simulate_workload
from repro.profiling import track_phase
from repro.traffic.criticality import CriticalityReport
from repro.traffic.trace import TrafficTrace

__all__ = [
    "SideArtifacts",
    "PipelineDesign",
    "PipelineRunner",
    "shared_runner",
    "reset_shared_runner",
    "describe_stages",
]

_STAGE_SECONDS = _metrics.histogram(
    "repro_stage_seconds",
    "Wall-clock seconds per executed (non-cached) pipeline stage.",
    ("stage",),
)


def _timed_stage(stage: str, fingerprint: str, compute):
    """Run one stage compute under a ``pipeline.<stage>`` span and feed
    its duration into ``repro_stage_seconds``.

    Only *executed* stages pass through here -- cache hits stay on
    their untimed fast path, so the histogram measures real stage cost,
    not lookup cost.
    """
    begin = time.perf_counter()
    with _tracing.span(
        f"pipeline.{stage}", fingerprint=fingerprint[:12]
    ):
        artifact = compute()
    _STAGE_SECONDS.observe(time.perf_counter() - begin, stage=stage)
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
    memoize_bindings:
        Whether search/binding artifacts participate in store lookups.
        Window/conflict analysis stages always do.
    retain_traces:
        Whether collection artifacts (which pin the whole trace) are
        kept in the store. Downstream artifacts key off the trace's
        content fingerprint either way, so window/conflict sharing
        survives without retention -- the process-global runner turns
        this off so designing many large traces sequentially cannot
        accumulate them for the life of the process.
    """

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        memoize_bindings: bool = True,
        retain_traces: bool = True,
    ) -> None:
        self.store = store if store is not None else ArtifactStore()
        self.memoize_bindings = memoize_bindings
        self.retain_traces = retain_traces

    @property
    def counters(self):
        """The store's per-stage execution/caching tallies."""
        return self.store.counters

    def memoized(self, stage: str, fingerprint: str, compute):
        """The store lookup discipline every in-memory stage follows:
        serve the artifact if the store holds it, else run ``compute``
        and store the result -- tallying the taken path under ``stage``.

        Public so callers can define their own stages (the suite runner
        keys trace building by scenario content through this).
        """
        cached = self.store.get(fingerprint)
        if cached is not None:
            self.counters.record_memo_hit(stage)
            return cached
        self.counters.record_computed(stage)
        artifact = _timed_stage(stage, fingerprint, compute)
        self.store.put(fingerprint, artifact)
        return artifact

    # -- phase 1: traffic collection ----------------------------------

    def collect(
        self, trace: Union[TrafficTrace, CollectedTraffic], label: str = ""
    ) -> CollectedTraffic:
        """Wrap a full-crossbar trace as the pipeline's root artifact.

        The fingerprint is the trace's record-level content hash, so
        equal traces -- however produced -- share every downstream
        artifact.
        """
        if isinstance(trace, CollectedTraffic):
            return trace
        artifact = CollectedTraffic.from_trace(trace, label=label)
        if not self.retain_traces:
            # Wrap without storing: the fingerprint (already computed)
            # keys every downstream stage, so sharing is unaffected,
            # and the store never pins the caller's trace alive.
            return artifact
        fingerprint = stage_fingerprint("collect", artifact.fingerprint, None)
        return self.memoized("collect", fingerprint, lambda: artifact)

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
        cost.
        """
        spec = window_stage_spec(config, window_size, mirrored)
        fingerprint = stage_fingerprint("window", collected.fingerprint, spec)
        cached = self.store.get(fingerprint)
        if cached is not None:
            self.counters.record_memo_hit("window")
            return cached
        arrays = self.store.get_arrays(fingerprint)
        if arrays is not None:
            artifact = _window_from_arrays(arrays, fingerprint, mirrored)
            if artifact is not None:
                self.counters.record_disk_hit("window")
                self.store.put(fingerprint, artifact)
                return artifact
        self.counters.record_computed("window")

        def _compute() -> WindowedAnalysis:
            trace = (
                collected.trace.mirrored() if mirrored else collected.trace
            )
            return WindowedAnalysis(
                problem=self._problem_for(trace, window_size, config),
                mirrored=mirrored,
                fingerprint=fingerprint,
            )

        artifact = _timed_stage("window", fingerprint, _compute)
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
        return self.memoized(
            "conflicts",
            fingerprint,
            lambda: ConflictArtifact(
                conflicts=build_conflicts(windowed.problem, config),
                fingerprint=fingerprint,
            ),
        )

    # -- phase 4: configuration search + optimal binding --------------

    def bind(
        self,
        windowed: WindowedAnalysis,
        conflicts: ConflictArtifact,
        config: SynthesisConfig,
    ) -> BindingArtifact:
        """Search the minimum configuration and optimize the binding."""
        fingerprint = stage_fingerprint(
            "bind",
            [windowed.fingerprint, conflicts.fingerprint],
            binding_stage_spec(config),
        )
        return self._bind_at(
            "bind", fingerprint, windowed.problem, conflicts.conflicts, config
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
    ) -> BindingArtifact:
        # Warm-start slot: keyed by problem shape + binding config, NOT
        # traffic content -- so an edited suite that (correctly) misses
        # the artifact cache still seeds its re-solve with the previous
        # binding. Hints are advisory; the solver re-validates them.
        warm_key = (
            warm_hint_key(stage, problem, config)
            if self.memoize_bindings
            else None
        )
        if self.memoize_bindings:
            cached = self.store.get(fingerprint)
            if cached is not None:
                self.counters.record_memo_hit(stage)
                return cached
            payload = self.store.get_payload(fingerprint)
            if payload is not None:
                try:
                    artifact = BindingArtifact.from_payload(
                        payload, fingerprint
                    )
                except (KeyError, TypeError, ValueError):
                    pass  # malformed persisted stage entry: recompute
                else:
                    self.counters.record_disk_hit(stage)
                    self.store.put(fingerprint, artifact)
                    self.store.put_warm(warm_key, artifact.binding.binding)
                    return artifact
        warm_binding = (
            self.store.get_warm(warm_key) if warm_key is not None else None
        )
        self.counters.record_computed(stage)

        def _compute() -> BindingArtifact:
            with track_phase("solve"):
                search = search_minimum_buses(
                    problem, conflicts, config, warm_binding=warm_binding
                )
                binding = optimize_binding(
                    problem, conflicts, search.num_buses, config,
                    warm_binding=warm_binding,
                )
                audit_binding(
                    problem,
                    conflicts,
                    binding.binding,
                    config.max_targets_per_bus,
                    raise_on_violation=True,
                )
            return BindingArtifact(
                search=search, binding=binding, fingerprint=fingerprint
            )

        artifact = _timed_stage(stage, fingerprint, _compute)
        if self.memoize_bindings:
            self.store.put(fingerprint, artifact)
            self.store.put_payload(fingerprint, artifact.to_payload())
            self.store.put_warm(warm_key, artifact.binding.binding)
        return artifact

    # -- composite drivers --------------------------------------------

    def design_side(
        self,
        collected: CollectedTraffic,
        config: SynthesisConfig,
        window_size: int,
        mirrored: bool,
    ) -> SideArtifacts:
        """Phases 2-4 for one crossbar side."""
        windowed = self.window(collected, config, window_size, mirrored)
        conflicts = self.conflicts(windowed, config)
        binding = self.bind(windowed, conflicts, config)
        return SideArtifacts(
            windowed=windowed, conflicts=conflicts, binding=binding
        )

    def design_fingerprint(
        self,
        trace_digest: str,
        config: SynthesisConfig,
        window_size: int,
    ) -> str:
        """The end-to-end design fingerprint, derived without executing.

        Stage fingerprints are pure functions of the upstream
        fingerprints plus each stage's configuration slice, so the final
        design fingerprint is computable from the trace's content digest
        alone -- no windowing, no solving. This is the fingerprint-level
        lookup hook the ``repro serve`` daemon coalesces on: it lets the
        server content-address a design request (and advertise the
        fingerprint to clients) before committing any solver work. The
        value matches :attr:`PipelineDesign.fingerprint` of an executed
        flow over a trace with digest ``trace_digest``.
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
        """The full staged flow for both crossbars of one point."""
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
        it = self.design_side(collected, config, window_size, mirrored=False)
        ti = self.design_side(collected, config, window_size, mirrored=True)
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

    def lookup_replay(self, fingerprint: str) -> Optional[ReplayArtifact]:
        """A cached replay artifact from either store layer, or ``None``
        (tallied as a memo/disk hit when found)."""
        cached = self.store.get(fingerprint)
        if cached is not None:
            self.counters.record_memo_hit("replay")
            return cached
        payload = self.store.get_payload(fingerprint)
        if payload is not None:
            try:
                artifact = ReplayArtifact.from_payload(payload, fingerprint)
            except (KeyError, TypeError, ValueError):
                pass  # malformed persisted stage entry: re-simulate
            else:
                self.counters.record_disk_hit("replay")
                self.store.put(fingerprint, artifact)
                return artifact
        return None

    def record_replay(self, artifact: ReplayArtifact) -> None:
        """Account and store a replay computed outside this runner (the
        execution engine's batched replay path lands here)."""
        self.counters.record_computed("replay")
        if artifact.fingerprint:
            self.store.put(artifact.fingerprint, artifact)
            self.store.put_payload(artifact.fingerprint, artifact.to_payload())

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
            cached = self.lookup_replay(fingerprint)
            if cached is not None:
                return cached
        self.counters.record_computed("replay")
        artifact = _timed_stage(
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


_SHARED_RUNNER: Optional[PipelineRunner] = None


def shared_runner() -> PipelineRunner:
    """The process-global analysis-stage runner (see module docstring).

    Bindings are not memoized here -- a solve requested without an
    explicit store is a solve performed, which keeps solver-level
    instrumentation and benchmarks meaningful -- and traces are not
    retained, so the global store holds only derived window/conflict
    artifacts under its LRU bound.
    """
    global _SHARED_RUNNER
    if _SHARED_RUNNER is None:
        _SHARED_RUNNER = PipelineRunner(
            store=ArtifactStore(max_memory_entries=64),
            memoize_bindings=False,
            retain_traces=False,
        )
    return _SHARED_RUNNER


def reset_shared_runner() -> None:
    """Drop the process-global runner (tests use this for isolation)."""
    global _SHARED_RUNNER
    _SHARED_RUNNER = None


def describe_stages(design: PipelineDesign) -> List[Tuple[str, str, str]]:
    """(stage, fingerprint, summary) rows for ``repro pipeline inspect``."""
    collected = design.collected
    rows: List[Tuple[str, str, str]] = [
        (
            "collect",
            collected.fingerprint,
            f"{len(collected.trace)} records, "
            f"{collected.trace.total_cycles} cycles",
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
