"""Cached, serial execution of synthesis and evaluation points.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.core.spec import SynthesisConfig
from repro.core.synthesis import CrossbarSynthesizer
from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache
from repro.exec.fingerprint import task_key, trace_fingerprint
from repro.exec.serialize import SynthesisResult
from repro.obs import tracing as _tracing
from repro.platform.drivers import TraceDrivenInitiator, simulate_workload
from repro.platform.metrics import LatencyStats
from repro.platform.soc import SoCConfig
from repro.traffic.kernels import warm_analytics
from repro.traffic.trace import TrafficTrace

__all__ = [
    "SynthesisTask",
    "EvaluationOutcome",
    "ReplayTask",
    "ReplayOutcome",
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


@dataclass(frozen=True)
class EvaluationOutcome:
    """One design's simulated behaviour."""

    label: str
    bus_count: int
    stats: LatencyStats
    critical_stats: LatencyStats
    finished: bool


@dataclass(frozen=True)
class ReplayTask:
    """One latency-replay simulation: a workload on a candidate fabric.

    A replay task names its workload in one of two ways:

    * trace-driven -- ``trace`` (the recorded workload) plus an optional
      ``platform`` (defaults to the generic replay platform derived from
      the trace's shape);
    * program-driven -- ``app_name`` + ``app_params``, rebuilt through
      the application registry (builders are deterministic, so every
      rebuild yields the same programs).
    """

    it_binding: Tuple[int, ...]
    ti_binding: Tuple[int, ...]
    budget: int
    trace: Optional[TrafficTrace] = None
    platform: Optional[SoCConfig] = None
    app_name: Optional[str] = None
    app_params: Tuple[Tuple[str, object], ...] = ()
    pace: bool = True
    label: str = ""

    def __post_init__(self) -> None:
        if (self.trace is None) == (self.app_name is None):
            raise ConfigurationError(
                "a replay task carries exactly one workload: a recorded "
                "trace or an application name"
            )
        if self.budget < 1:
            raise ConfigurationError(f"replay budget must be >= 1, got {self.budget}")


@dataclass(frozen=True)
class ReplayOutcome:
    """One replay's simulated behaviour."""

    label: str
    stats: LatencyStats
    critical_stats: LatencyStats
    finished: bool
    num_transactions: int
    simulated_cycles: int


def _run_replay_task(task: ReplayTask) -> ReplayOutcome:
    """Execute one replay task."""
    if task.trace is not None:
        driver = TraceDrivenInitiator(
            task.trace, config=task.platform, pace=task.pace, label=task.label
        )
    else:
        from repro.apps import build_application

        driver = build_application(task.app_name, **dict(task.app_params)).driver()
    result = simulate_workload(
        driver, list(task.it_binding), list(task.ti_binding), task.budget
    )
    return ReplayOutcome(
        label=task.label,
        stats=result.latency_stats(),
        critical_stats=result.latency_stats(critical_only=True),
        finished=result.finished,
        num_transactions=result.num_transactions,
        simulated_cycles=result.simulated_cycles,
    )


TraceArg = Union[TrafficTrace, Callable[[], TrafficTrace]]
"""A trace, or a zero-argument callable that produces it on demand."""


def _solve_task(trace: TrafficTrace, task: SynthesisTask) -> SynthesisResult:
    report = CrossbarSynthesizer(task.config).design_from_trace(trace, task.window_size)
    return SynthesisResult.from_report(report)


class ExecutionEngine:
    """Solves synthesis points and simulates designs, behind a cache.

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
        # Compile the trace's columnar analytics (both crossbar sides)
        # once, before any point is solved, and reuse it across tasks.
        with _tracing.span("engine.sweep", tasks=len(tasks)):
            warm_analytics(trace)
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
            results = []
            for trace, task in items:
                warm_analytics(trace)
                results.append(_solve_task(trace, task))
            return results

    # -- latency replays ----------------------------------------------

    def run_replay_batch(self, tasks: Sequence[ReplayTask]) -> List[ReplayOutcome]:
        """Simulate every replay task, in task order.

        The scenario-suite pattern again: each suite member contributes
        one workload (a recorded trace or a program source) to replay on
        the shared candidate fabric. Caching lives one layer up, in the
        pipeline's replay stage (the engine is handed only the misses).
        """
        with _tracing.span("engine.replay", tasks=len(tasks)):
            return [_run_replay_task(task) for task in tasks]

    # -- evaluation ---------------------------------------------------

    def evaluate_designs(
        self,
        application,
        designs: Sequence,
        budget: int,
    ) -> List[EvaluationOutcome]:
        """Simulate ``application`` on every design, in design order."""
        with _tracing.span("engine.evaluate", designs=len(designs)):
            outcomes = []
            for design in designs:
                result = application.simulate(
                    design.it.as_list(), design.ti.as_list(), budget
                )
                outcomes.append(
                    EvaluationOutcome(
                        label=design.label,
                        bus_count=design.bus_count,
                        stats=result.latency_stats(),
                        critical_stats=result.latency_stats(critical_only=True),
                        finished=result.finished,
                    )
                )
            return outcomes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cache = self.cache.cache_dir if self.cache is not None else None
        return f"<ExecutionEngine cache={cache}>"
