"""Cached, serial execution of synthesis points.

The design-space studies solve many independent synthesis points over
the same trace. The :class:`ExecutionEngine` puts a cache in front of
them. A point's address is its design fingerprint
(:meth:`~repro.pipeline.runner.PipelineRunner.design_fingerprint`): a
pure function of the trace digest, the effective window and the stage
configuration slices, derived without executing anything. One step,
:meth:`ExecutionEngine.lookup_or_solve`, is the only code that reads or
writes a whole-result record, in this order: the engine's memory, the
:class:`~repro.exec.cache.ResultCache` on disk, then solve and store.
The solve carries the trace's digest and its loader, not the trace: the
loader runs only in a window stage that misses memory and disk, and its
trace's digest is checked then. Solved points are never recomputed,
across runs and across processes, and identical points share one solve.

Points are solved through the staged pipeline (:mod:`repro.pipeline`)
on the engine's own :class:`~repro.pipeline.runner.PipelineRunner`, or
on the runner a caller hands in (a suite solves its scenarios on its
own, whose memory already holds their windows). The ``repro serve``
daemon runs every job on the engine's runner, so its jobs share one
in-memory store. With a cache directory
the engine's runner persists the windowed tensors there, so a threshold
edit in a fresh process reads its windows from disk and never loads its
trace. The directory has one :class:`ResultCache`,
:attr:`ExecutionEngine.cache`: the engine's runner, its
:class:`~repro.pipeline.collect.CollectStage` and the runners built
around the engine persist through it, and its whole-result statistics
(:attr:`~repro.exec.cache.ResultCache.stats`, the registry's
``family="result"`` cache events) are apart from stage ones.

Latency replays are not cached here: :meth:`ExecutionEngine.run_replay_batch`
hands each plan to :meth:`~repro.pipeline.runner.PipelineRunner.replay`,
the one cached replay stage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, Union

from repro.core.spec import CrossbarDesign, SynthesisConfig
from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache
from repro.exec.fingerprint import trace_fingerprint
from repro.exec.serialize import SynthesisResult
from repro.obs import tracing as _tracing
from repro.pipeline.artifacts import (
    CollectedTraffic,
    TraceDigestMismatch,
    TraceSource,
)
from repro.pipeline.collect import CollectStage
from repro.pipeline.runner import PipelineRunner
from repro.pipeline.store import ArtifactStore
from repro.traffic.trace import TrafficTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.artifacts import ReplayArtifact
    from repro.platform.drivers import WorkloadDriver

__all__ = [
    "SynthesisTask",
    "ExecutionEngine",
]


@dataclass(frozen=True)
class SynthesisTask:
    """One independent synthesis point of a sweep.

    ``window_size`` is the *effective* window (already clamped to the
    trace length by the caller); ``config`` carries every other knob.
    """

    config: SynthesisConfig
    window_size: int

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ConfigurationError(
                f"task window_size must be >= 1, got {self.window_size}"
            )


TraceArg = Union[TrafficTrace, Callable[[], TrafficTrace]]
"""A trace, or a zero-argument callable that produces it on demand."""


class ExecutionEngine:
    """Solves synthesis points behind a cache; batches replays through
    a pipeline's replay stage.

    Parameters
    ----------
    cache:
        A :class:`ResultCache`, a cache-directory path, or ``None`` to
        keep results in memory only.

    Attributes
    ----------
    pipeline:
        The runner points are solved on unless a caller hands in its
        own. Its store's memory layer also holds whole results; its
        disk layer is :attr:`cache`.
    collector:
        The input-keyed :class:`~repro.pipeline.collect.CollectStage`,
        persisting through :attr:`cache` too.
    """

    def __init__(self, cache: Union[ResultCache, str, Path, None] = None) -> None:
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.pipeline = PipelineRunner(
            store=ArtifactStore(disk=cache, max_memory_entries=64)
        )
        self.collector = CollectStage(ArtifactStore(disk=cache))

    # -- synthesis ----------------------------------------------------

    def lookup_or_solve(
        self,
        trace: Optional[TraceArg],
        task: SynthesisTask,
        trace_digest: Optional[str] = None,
        pipeline: Optional[PipelineRunner] = None,
    ) -> Optional[SynthesisResult]:
        """The one read/write path of whole-result records.

        Looks the point's design fingerprint up in memory, then on
        disk; on a miss solves on ``pipeline`` (by default the engine's
        runner) and stores the result in both. With ``trace=None`` the
        step only looks up and returns ``None`` on a miss. A hit comes
        back with ``config`` set to the task's: the nominal
        ``config.window_size`` is the one field no stage spec covers, so
        points differing only there share an address.

        ``trace`` may be a zero-argument callable (e.g.
        :meth:`repro.pipeline.artifacts.TraceSource.trace`). With
        ``trace_digest`` given, the solve hands the pipeline that digest
        and the loader: only a window stage that misses memory and its
        ``.npz`` sidecar calls it, so a point whose windows are stored
        never loads, decodes or hashes its trace. A loaded trace whose
        digest differs restarts the point under its own digest: that
        address is looked up, else solved and stored, and nothing is
        stored under the stale one.
        """
        if trace_digest is None:
            trace = trace() if callable(trace) else trace
            trace_digest = trace_fingerprint(trace)
        key = PipelineRunner.design_fingerprint(
            trace_digest, task.config, task.window_size
        )
        result = self._recall(key)
        if result is None and trace is not None:
            load = trace if callable(trace) else lambda: trace
            source = TraceSource(load, trace_digest)
            try:
                result = self._solve(source, task, pipeline)
            except TraceDigestMismatch:
                key = PipelineRunner.design_fingerprint(
                    source.digest, task.config, task.window_size
                )
                result = self._recall(key)
                if result is None:
                    result = self._solve(source, task, pipeline)
        return None if result is None else replace(result, config=task.config)

    def _solve(
        self,
        source: TraceSource,
        task: SynthesisTask,
        pipeline: Optional[PipelineRunner],
    ) -> SynthesisResult:
        """Solve the point under ``source``'s digest and store the
        result in memory and on disk."""
        outcome = (pipeline or self.pipeline).design(
            CollectedTraffic(source, source.digest),
            task.config,
            task.window_size,
        )
        result = SynthesisResult.from_design(outcome, task.config)
        self.pipeline.store.put(outcome.fingerprint, result)
        if self.cache is not None:
            self.cache.put(outcome.fingerprint, result)
        return result

    def _recall(self, key: str) -> Optional[SynthesisResult]:
        """The record at ``key`` from memory, else from disk."""
        result = self.pipeline.store.get(key)
        if result is None and self.cache is not None:
            result = self.cache.get(key)
            if result is not None:
                self.pipeline.store.put(key, result)
        return result

    def synthesize(
        self,
        trace: TraceArg,
        config: Optional[SynthesisConfig] = None,
        window_size: Optional[int] = None,
        trace_digest: Optional[str] = None,
    ) -> SynthesisResult:
        """Solve (or fetch) a single synthesis point (see
        :meth:`lookup_or_solve` for ``trace`` and ``trace_digest``)."""
        config = config or SynthesisConfig()
        window = window_size or config.window_size or 1_000
        task = SynthesisTask(config=config, window_size=window)
        return self.run_sweep(trace, [task], trace_digest=trace_digest)[0]

    def run_sweep(
        self,
        trace: TraceArg,
        tasks: Sequence[SynthesisTask],
        trace_digest: Optional[str] = None,
    ) -> List[SynthesisResult]:
        """Solve (or fetch) every task against ``trace``, in task order.

        The returned list is ordered and valued identically whichever
        path each point took.
        """
        with _tracing.span("engine.sweep", tasks=len(tasks)):
            return [self.lookup_or_solve(trace, task, trace_digest) for task in tasks]

    # -- batches (one task per trace) ---------------------------------

    def run_batch(
        self,
        items: Sequence[Tuple],
        pipeline: Optional[PipelineRunner] = None,
    ) -> List[SynthesisResult]:
        """Solve (or fetch) one synthesis point per ``(trace, task)`` or
        ``(trace, task, trace_digest)`` item, in order, solving misses
        on ``pipeline`` (by default the engine's runner).

        Where :meth:`run_sweep` solves many tasks against *one* shared
        trace, a batch solves one task per trace -- the scenario-suite
        pattern: each suite member contributes its own trace and its own
        analysis window. Each item is addressed by its own trace's
        digest, so identical items share one solve; an item with its
        digest may hand a loader instead of the trace (see
        :meth:`lookup_or_solve`), which a hit never calls.
        """
        with _tracing.span("engine.batch", items=len(items)):
            return [
                self.lookup_or_solve(trace, task, *digest, pipeline=pipeline)
                for trace, task, *digest in items
            ]

    # -- latency replays ----------------------------------------------

    def run_replay_batch(
        self,
        plans: Sequence[Tuple[WorkloadDriver, CrossbarDesign, int, str]],
        pipeline: PipelineRunner,
    ) -> List[ReplayArtifact]:
        """Replay every ``(driver, design, budget, label)`` plan through
        ``pipeline``'s cached replay stage, in plan order.

        The scenario-suite pattern again: each suite member contributes
        one workload driver (its live programs or its recorded trace) to
        replay on the shared candidate fabric.
        :meth:`~repro.pipeline.runner.PipelineRunner.replay` serves
        cached plans from its store and stores every computed one.
        """
        with _tracing.span("engine.replay", tasks=len(plans)):
            return [pipeline.replay(*plan) for plan in plans]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cache = self.cache.cache_dir if self.cache is not None else None
        return f"<ExecutionEngine cache={cache}>"
