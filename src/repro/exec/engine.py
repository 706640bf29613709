"""Cached, serial execution of synthesis points.

The design-space studies solve many independent synthesis points over
the same trace. The :class:`ExecutionEngine` puts a cache in front of
them: each point is keyed by a content hash of (trace, configuration,
window); solved points are stored in a
:class:`~repro.exec.cache.ResultCache` and never recomputed, across
runs and across processes. Uncached points are solved in task order in
this process, and identical points share one solve.

Every point is solved through the staged pipeline
(:mod:`repro.pipeline`): the engine hands the task to
:class:`~repro.core.synthesis.CrossbarSynthesizer`, which composes
collect/window/conflict/bind stages over the process-shared artifact
store. Sweep points over one trace therefore share the collection and
windowing artifacts (a threshold sweep re-windows nothing).

Latency replays are not cached here: :meth:`ExecutionEngine.run_replay_batch`
hands each plan to :meth:`~repro.pipeline.runner.PipelineRunner.replay`,
the one cached replay stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.spec import CrossbarDesign, SynthesisConfig
from repro.core.synthesis import CrossbarSynthesizer
from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache
from repro.exec.fingerprint import task_key, trace_fingerprint
from repro.exec.serialize import SynthesisResult
from repro.obs import tracing as _tracing
from repro.traffic.trace import TrafficTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.artifacts import ReplayArtifact
    from repro.pipeline.runner import PipelineRunner
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


def _solve_task(trace: TrafficTrace, task: SynthesisTask) -> SynthesisResult:
    report = CrossbarSynthesizer(task.config).design_from_trace(trace, task.window_size)
    return SynthesisResult.from_report(report)


class ExecutionEngine:
    """Solves synthesis points behind a cache; batches replays through
    a pipeline's replay stage.

    Parameters
    ----------
    cache:
        A :class:`ResultCache`, a cache-directory path, or ``None`` to
        disable caching.
    """

    def __init__(self, cache: Union[ResultCache, str, Path, None] = None) -> None:
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache

    # -- synthesis ----------------------------------------------------

    def synthesize(
        self,
        trace: TraceArg,
        config: Optional[SynthesisConfig] = None,
        window_size: Optional[int] = None,
        application: Optional[str] = None,
        trace_digest: Optional[str] = None,
    ) -> SynthesisResult:
        """Solve (or fetch) a single synthesis point (see
        :meth:`run_sweep` for ``trace`` and ``trace_digest``)."""
        config = config or SynthesisConfig()
        window = window_size or config.window_size or 1_000
        task = SynthesisTask(config=config, window_size=window)
        return self.run_sweep(
            trace, [task], application=application, trace_digest=trace_digest
        )[0]

    def run_sweep(
        self,
        trace: TraceArg,
        tasks: Sequence[SynthesisTask],
        application: Optional[str] = None,
        trace_digest: Optional[str] = None,
    ) -> List[SynthesisResult]:
        """Solve every task against ``trace``; results in task order.

        Cached points are returned without any solver work; the
        remainder is solved in order. The returned list is ordered and
        valued identically whichever path each point took.

        ``trace`` may be a zero-argument callable returning the trace
        (e.g. :meth:`repro.pipeline.collect.TraceSource.trace`): with
        ``trace_digest`` given it is only called when some point misses
        the cache, so a fully cached sweep never loads its trace. A
        loaded trace whose digest is not ``trace_digest`` restarts the
        sweep under its own digest, so no result is read or stored
        under a key its trace does not have.
        """
        keys: List[Optional[str]] = [None] * len(tasks)
        if self.cache is not None:
            if trace_digest is None:
                trace = trace() if callable(trace) else trace
                trace_digest = trace_fingerprint(trace)
            keys = [
                task_key(trace_digest, task.config, task.window_size, application)
                for task in tasks
            ]

        def solve(indices: List[int]) -> Optional[List[SynthesisResult]]:
            nonlocal trace
            if callable(trace):
                trace = trace()
                if self.cache is not None and trace_fingerprint(trace) != trace_digest:
                    return None
            return self._solve_pending(trace, [tasks[index] for index in indices])

        # Identical points (e.g. several windows clamped to the trace
        # length) share one solve.
        results = self._run_cached(keys, tasks, solve)
        if results is None:
            return self.run_sweep(trace, tasks, application)
        return results

    def _run_cached(
        self,
        keys: Sequence[Optional[str]],
        idents: Sequence[Hashable],
        solve: Callable[[List[int]], Optional[List[SynthesisResult]]],
    ) -> Optional[List[SynthesisResult]]:
        """Look every point up, solve the misses once each, store once.

        ``keys[i]`` is point ``i``'s cache key (``None`` without a
        cache); pending points with equal ``idents`` share one solve.
        ``solve(indices)`` solves the first pending point of each
        distinct ident, in order, or returns ``None`` to abandon the
        run (nothing is stored then).
        """
        results = [self.cache.get(key) if key is not None else None for key in keys]
        pending = [index for index, result in enumerate(results) if result is None]
        if not pending:
            return results
        first: Dict[Hashable, int] = {}
        for index in pending:
            first.setdefault(idents[index], index)
        solved = solve(list(first.values()))
        if solved is None:
            return None
        by_ident = dict(zip(first, solved))
        stored = set()
        for index in pending:
            results[index] = by_ident[idents[index]]
            key = keys[index]
            if key is not None and key not in stored:
                self.cache.put(key, results[index])
                stored.add(key)
        return results

    def _solve_pending(
        self, trace: TrafficTrace, tasks: Sequence[SynthesisTask]
    ) -> List[SynthesisResult]:
        with _tracing.span("engine.sweep", tasks=len(tasks)):
            return [_solve_task(trace, task) for task in tasks]

    # -- batches (one task per trace) ---------------------------------

    def run_batch(
        self,
        items: Sequence[Tuple[TrafficTrace, SynthesisTask]],
        applications: Optional[Sequence[Optional[str]]] = None,
    ) -> List[SynthesisResult]:
        """Solve one synthesis point per (trace, task) pair, in order.

        Where :meth:`run_sweep` solves many tasks against *one* shared
        trace, a batch solves one task per trace -- the scenario-suite
        pattern: each suite member contributes its own trace and its own
        analysis window. Caching works exactly as for sweeps (each item
        is keyed by its trace's fingerprint) and identical items share
        one solve.

        ``applications`` optionally tags each item's cache key with a
        stable source name (e.g. the scenario name), preventing
        collisions between same-shaped traces from different builders.
        """
        if applications is None:
            applications = [None] * len(items)
        if len(applications) != len(items):
            raise ConfigurationError(
                f"{len(applications)} application tags for {len(items)} items"
            )
        digests = [trace_fingerprint(trace) for trace, _task in items]
        keys: List[Optional[str]] = [None] * len(items)
        if self.cache is not None:
            keys = [
                task_key(digest, task.config, task.window_size, application)
                for digest, (_trace, task), application in zip(
                    digests, items, applications
                )
            ]
        # Items with identical content (same trace fingerprint and task)
        # share one solve.
        return self._run_cached(
            keys,
            [(digest, task) for digest, (_trace, task) in zip(digests, items)],
            lambda indices: self._solve_batch([items[index] for index in indices]),
        )

    def _solve_batch(
        self, items: Sequence[Tuple[TrafficTrace, SynthesisTask]]
    ) -> List[SynthesisResult]:
        with _tracing.span("engine.batch", items=len(items)):
            return [_solve_task(trace, task) for trace, task in items]

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
