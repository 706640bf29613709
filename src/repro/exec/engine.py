"""Parallel, cached execution of synthesis and evaluation points.

The design-space studies are embarrassingly parallel: every sweep point
is an independent synthesis run over the same trace. The
:class:`ExecutionEngine` exploits that twice over:

* **Caching** -- each point is keyed by a content hash of (trace,
  configuration, window); solved points are stored in a
  :class:`~repro.exec.cache.ResultCache` and never recomputed, across
  runs and across processes.
* **Parallelism** -- uncached points fan out over a process pool. The
  shared trace is shipped to each worker once (via the pool
  initializer), not once per point. Results are returned in task order
  regardless of completion order, so parallel runs are byte-identical
  to serial ones.

The pool is an optimization, never a requirement: pool infrastructure
failures (fork unavailable, a crashed worker, a stale worker trace) are
absorbed by a bounded recovery ladder -- per-task retries with capped
backoff, then one pool rebuild, then serial execution for whatever
remains -- governed by a :class:`~repro.resilience.RetryPolicy` and
counted in :class:`~repro.resilience.EngineStats` so degradation is
observable (``/v1/stats``) rather than silent. ``jobs=1`` bypasses the
pool entirely. Whatever path a task takes, its result is identical:
the chaos suite asserts byte-identical reports under injected worker
crashes (``repro.resilience`` fault point ``worker.crash``).

Every point is solved through the staged pipeline
(:mod:`repro.pipeline`): the engine hands the task to
:class:`~repro.core.synthesis.CrossbarSynthesizer`, which composes
collect/window/conflict/bind stages over the process-shared artifact
store. Sweep points over one trace therefore share the collection and
windowing artifacts (a threshold sweep re-windows nothing), both in the
serial path and within each pool worker.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.spec import SynthesisConfig
from repro.core.synthesis import CrossbarSynthesizer
from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache
from repro.exec.fingerprint import task_key, trace_fingerprint
from repro.exec.serialize import SynthesisResult
from repro.obs import tracing as _tracing
from repro.resilience import EngineStats, RetryPolicy, maybe_crash_worker
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
    "StaleWorkerTraceError",
    "preferred_mp_context",
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
    """One design's simulated behaviour, as returned by pool workers."""

    label: str
    bus_count: int
    stats: LatencyStats
    critical_stats: LatencyStats
    finished: bool


@dataclass(frozen=True)
class ReplayTask:
    """One latency-replay simulation: a workload on a candidate fabric.

    Replay tasks are *portable* workload descriptions -- everything a
    pool worker needs to rebuild the driver on its side:

    * trace-driven -- ``trace`` (the recorded workload) plus an optional
      ``platform`` (defaults to the generic replay platform derived from
      the trace's shape);
    * program-driven -- ``app_name`` + ``app_params``, rebuilt through
      the application registry (builders are deterministic, so the
      rebuilt programs match the parent's exactly).
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
    """One replay's simulated behaviour, as returned by pool workers."""

    label: str
    stats: LatencyStats
    critical_stats: LatencyStats
    finished: bool
    num_transactions: int
    simulated_cycles: int


def _run_replay_task(task: ReplayTask) -> ReplayOutcome:
    """Execute one replay task (serial path and pool workers alike)."""
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


def _replay_in_worker(
    index: int, task: ReplayTask, attempt: int = 0
) -> Tuple[int, ReplayOutcome]:
    maybe_crash_worker(f"{index}:a{attempt}")
    # Worker spans resolve their trace context lazily from REPRO_TRACE
    # (exported by the parent's propagate_context around the fan-out)
    # and spool to disk, so the job's tree spans processes. A crashed
    # worker writes no span; the surviving retry's attempt appears.
    with _tracing.span("worker.replay", index=index, attempt=attempt):
        return index, _run_replay_task(task)


TraceArg = Union[TrafficTrace, Callable[[], TrafficTrace]]
"""A trace, or a zero-argument callable that produces it on demand."""


class StaleWorkerTraceError(RuntimeError):
    """A pool worker held a trace other than the sweep's.

    Raised (and transported back to the parent) when a task's expected
    trace fingerprint does not match the worker's installed trace --
    the reused-pool leak this check exists to catch. The engine treats
    it like any pool infrastructure failure: degrade to the serial
    path, which always solves against the right trace.
    """


# Worker-process state: the sweep's shared trace, installed once per
# worker by the pool initializer instead of being pickled per task, and
# its content fingerprint, verified per task. The engine currently
# builds a fresh pool per sweep, so a mismatch indicates module-global
# leakage (a worker inheriting state under ``fork``, or future pool
# reuse across sweeps); the verification turns that silent wrong-trace
# solve into a loud refusal the engine degrades from.
_WORKER_TRACE: Optional[TrafficTrace] = None
_WORKER_TRACE_DIGEST: Optional[str] = None


def _install_worker_trace(trace: TrafficTrace, digest: Optional[str] = None) -> None:
    global _WORKER_TRACE, _WORKER_TRACE_DIGEST
    _WORKER_TRACE = trace
    _WORKER_TRACE_DIGEST = digest if digest is not None else trace_fingerprint(trace)
    # The parent warms the columnar analytics before spawning the pool,
    # so under ``fork`` (and via the pickled initargs under ``spawn``)
    # the compiled form arrives pre-built; this call is then a no-op,
    # and otherwise guarantees one compilation per worker, not per task.
    warm_analytics(trace)


def _solve_task_in_worker(
    index: int, task: SynthesisTask, expected_digest: str, attempt: int = 0
) -> Tuple[int, SynthesisResult]:
    # Fault keys carry the attempt number, so a plan matching ``*:a0``
    # kills the first attempt and lets the retry through -- the chaos
    # suite's "crash once, recover" scenario.
    maybe_crash_worker(f"{index}:a{attempt}")
    if _WORKER_TRACE is None:
        raise StaleWorkerTraceError("pool initializer did not run")
    if _WORKER_TRACE_DIGEST != expected_digest:
        raise StaleWorkerTraceError(
            f"worker holds trace {_WORKER_TRACE_DIGEST!r} but the task "
            f"expects {expected_digest!r}; refusing to solve against a "
            f"stale trace"
        )
    with _tracing.span(
        "worker.solve",
        index=index,
        attempt=attempt,
        window=task.window_size,
    ):
        return index, _solve_task(_WORKER_TRACE, task)


def _solve_task(trace: TrafficTrace, task: SynthesisTask) -> SynthesisResult:
    report = CrossbarSynthesizer(task.config).design_from_trace(trace, task.window_size)
    return SynthesisResult.from_report(report)


def _solve_batch_item(
    index: int, trace: TrafficTrace, task: SynthesisTask, attempt: int = 0
) -> Tuple[int, SynthesisResult]:
    """Pool entry point for batch items, which carry their own trace."""
    maybe_crash_worker(f"{index}:a{attempt}")
    with _tracing.span(
        "worker.solve",
        index=index,
        attempt=attempt,
        window=task.window_size,
    ):
        warm_analytics(trace)
        return index, _solve_task(trace, task)


def _simulate_outcome(
    application,
    it_binding,
    ti_binding,
    label: str,
    bus_count: int,
    budget: int,
) -> EvaluationOutcome:
    """The one place an evaluation simulation becomes an outcome (both
    the serial and the pool-worker path go through it)."""
    result = application.simulate(list(it_binding), list(ti_binding), budget)
    return EvaluationOutcome(
        label=label,
        bus_count=bus_count,
        stats=result.latency_stats(),
        critical_stats=result.latency_stats(critical_only=True),
        finished=result.finished,
    )


def _evaluate_in_worker(
    index: int,
    registry_key: str,
    it_binding: Tuple[int, ...],
    ti_binding: Tuple[int, ...],
    label: str,
    bus_count: int,
    budget: int,
    attempt: int = 0,
) -> Tuple[int, EvaluationOutcome]:
    maybe_crash_worker(f"{index}:a{attempt}")
    from repro.apps import build_application

    with _tracing.span("worker.evaluate", index=index, attempt=attempt):
        application = build_application(registry_key)
        return index, _simulate_outcome(
            application, it_binding, ti_binding, label, bus_count, budget
        )


def preferred_mp_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap model/trace hand-off) where the OS offers it.

    Every worker pool the engine builds uses it, so every process the
    platform spawns follows one start-method policy.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


_pool_context = preferred_mp_context


class ExecutionEngine:
    """Fans synthesis/evaluation points out over workers, behind a cache.

    Parameters
    ----------
    jobs:
        Worker-process count. ``1`` (the default) runs everything
        in-process; ``0`` or ``None`` means one worker per CPU.
    cache:
        A :class:`ResultCache`, a cache-directory path, or ``None`` to
        disable caching.
    retry:
        A :class:`~repro.resilience.RetryPolicy` bounding fault
        recovery (defaults to one per-task retry + one pool rebuild).
    stats:
        An :class:`~repro.resilience.EngineStats` to tally recovery
        events into; one is created when not supplied, and
        :meth:`scoped` engines share their parent's instance.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        cache: Union[ResultCache, str, Path, None] = None,
        retry: Optional[RetryPolicy] = None,
        stats: Optional[EngineStats] = None,
    ) -> None:
        if jobs is None or jobs == 0:
            jobs = multiprocessing.cpu_count()
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.retry = retry if retry is not None else RetryPolicy()
        self.stats = stats if stats is not None else EngineStats()

    def scoped(self, jobs: Optional[int] = None) -> "ExecutionEngine":
        """A job-scoped engine sharing this engine's cache instance.

        The ``repro serve`` daemon executes every accepted job on its
        own engine -- each job gets its own pool fan-out (bounded by the
        server's per-job ``jobs`` setting) and fails independently --
        while all jobs read and write *one* :class:`ResultCache`
        instance, so hit/miss statistics aggregate server-wide and two
        jobs never hold divergent views of the same cache directory.
        The retry policy and degradation stats are shared the same way,
        so ``/v1/stats`` reports recovery activity across all jobs.

        ``jobs=None`` inherits this engine's worker count.
        """
        return ExecutionEngine(
            jobs=self.jobs if jobs is None else jobs,
            cache=self.cache,
            retry=self.retry,
            stats=self.stats,
        )

    # -- fault-tolerant pool fan-out ----------------------------------

    def _pool_map(
        self,
        count: int,
        make_pool: Callable[[], ProcessPoolExecutor],
        submit_one: Callable[[ProcessPoolExecutor, int, int], "Future"],
        serial_one: Callable[[int], object],
    ) -> List[object]:
        """Run ``count`` indexed tasks on a pool, absorbing pool faults.

        The recovery ladder, bounded by :attr:`retry`:

        1. a failed task is retried (``task_retries`` times), in the
           existing pool when it is healthy or in a rebuilt one;
        2. a broken pool is torn down and rebuilt at most
           ``pool_rebuilds`` times, with capped exponential backoff;
        3. whatever still fails past those budgets runs serially
           in-process -- per task, not per batch.

        Task-level *application* errors (a solver raising on a bad
        formulation) are not recovery candidates: they propagate
        unchanged, exactly as on the serial path. Only pool
        infrastructure faults -- :class:`BrokenProcessPool`,
        :class:`OSError`, :class:`StaleWorkerTraceError` -- climb the
        ladder, and every rung taken is recorded in :attr:`stats`.

        The whole ladder runs inside one ``engine.pool_map`` span with
        the trace context exported to ``REPRO_TRACE``
        (:func:`repro.obs.propagate_context`): the initial pool *and*
        any pool rebuilt mid-batch inherit the same parent span, so a
        job's trace tree survives worker crashes.
        """
        with _tracing.span("engine.pool_map", tasks=count):
            with _tracing.propagate_context():
                return self._pool_map_impl(count, make_pool, submit_one, serial_one)

    def _pool_map_impl(
        self,
        count: int,
        make_pool: Callable[[], ProcessPoolExecutor],
        submit_one: Callable[[ProcessPoolExecutor, int, int], "Future"],
        serial_one: Callable[[int], object],
    ) -> List[object]:
        results: Dict[int, object] = {}
        attempts = {index: 0 for index in range(count)}

        def run_serially(indices: Sequence[int]) -> None:
            self.stats.record_serial_fallback(len(indices))
            for index in indices:
                results[index] = serial_one(index)

        try:
            pool = make_pool()
        except OSError:
            run_serially(range(count))
            return [results[index] for index in range(count)]

        rebuilds = 0
        pending = list(range(count))
        try:
            while pending:
                futures = [
                    (index, submit_one(pool, index, attempts[index]))
                    for index in pending
                ]
                failed: List[int] = []
                pool_broken = False
                for index, future in futures:
                    try:
                        returned_index, result = future.result()
                        results[returned_index] = result
                    except StaleWorkerTraceError:
                        failed.append(index)
                    except (BrokenProcessPool, OSError):
                        pool_broken = True
                        failed.append(index)

                retryable = [
                    index
                    for index in failed
                    if attempts[index] < self.retry.task_retries
                ]
                exhausted = [
                    index
                    for index in failed
                    if attempts[index] >= self.retry.task_retries
                ]
                if retryable:
                    for index in retryable:
                        attempts[index] += 1
                    self.stats.record_task_retry(len(retryable))
                if exhausted:
                    run_serially(exhausted)

                if pool_broken:
                    pool.shutdown(wait=True, cancel_futures=True)
                    pool = None
                    if retryable:
                        if rebuilds < self.retry.pool_rebuilds:
                            time.sleep(self.retry.backoff_for(rebuilds))
                            rebuilds += 1
                            self.stats.record_pool_rebuild()
                            try:
                                pool = make_pool()
                            except OSError:
                                run_serially(retryable)
                                retryable = []
                        else:
                            run_serially(retryable)
                            retryable = []
                pending = retryable
        finally:
            # wait=True: an abandoned manager thread races the
            # interpreter's atexit hooks ("Bad file descriptor" noise on
            # process exit); joining it is cheap even for a broken pool,
            # whose dead workers make shutdown return immediately.
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
        return [results[index] for index in range(count)]

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
        remainder is fanned out over the pool (or solved serially for
        ``jobs=1``). The returned list is ordered and valued identically
        whichever path each point took.

        ``trace`` may be a zero-argument callable returning the trace
        (e.g. :meth:`repro.pipeline.collect.TraceSource.trace`): with
        ``trace_digest`` given it is only called when some point misses
        the cache, so a fully cached sweep never loads its trace. A
        loaded trace whose digest is not ``trace_digest`` restarts the
        sweep under its own digest, so no result is read or stored
        under a key its trace does not have.
        """
        results: List[Optional[SynthesisResult]] = [None] * len(tasks)
        pending: List[Tuple[int, Optional[str], SynthesisTask]] = []
        if self.cache is not None and trace_digest is None:
            trace = trace() if callable(trace) else trace
            trace_digest = trace_fingerprint(trace)
        for index, task in enumerate(tasks):
            key = None
            if self.cache is not None:
                key = task_key(trace_digest, task.config, task.window_size, application)
                cached = self.cache.get(key)
                if cached is not None:
                    results[index] = cached
                    continue
            pending.append((index, key, task))

        if pending and callable(trace):
            trace = trace()
            if self.cache is not None and trace_fingerprint(trace) != trace_digest:
                return self.run_sweep(trace, tasks, application)
        if pending:
            # Identical points (e.g. several windows clamped to the trace
            # length) share one solve; every pending slot maps onto it.
            distinct: List[SynthesisTask] = []
            slot: Dict[SynthesisTask, int] = {}
            for _index, _key, task in pending:
                if task not in slot:
                    slot[task] = len(distinct)
                    distinct.append(task)
            solved = self._solve_pending(trace, distinct)
            stored = set()
            for index, key, task in pending:
                result = solved[slot[task]]
                results[index] = result
                if self.cache is not None and key is not None and key not in stored:
                    self.cache.put(key, result)
                    stored.add(key)
        return results  # type: ignore[return-value]

    def _solve_pending(
        self, trace: TrafficTrace, tasks: Sequence[SynthesisTask]
    ) -> List[SynthesisResult]:
        # Compile the trace's columnar analytics (both crossbar sides)
        # once, before any point is solved: the serial path reuses it
        # across every task, and pool workers inherit it instead of
        # compiling per sweep point.
        with _tracing.span("engine.sweep", tasks=len(tasks)):
            warm_analytics(trace)
            if self.jobs > 1 and len(tasks) > 1:
                return self._solve_parallel(trace, tasks)
            return [_solve_task(trace, task) for task in tasks]

    def _solve_parallel(
        self, trace: TrafficTrace, tasks: Sequence[SynthesisTask]
    ) -> List[SynthesisResult]:
        workers = min(self.jobs, len(tasks))
        digest = trace_fingerprint(trace)

        def make_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=workers,
                mp_context=_pool_context(),
                initializer=_install_worker_trace,
                initargs=(trace, digest),
            )

        def submit_one(pool: ProcessPoolExecutor, index: int, attempt: int):
            return pool.submit(
                _solve_task_in_worker, index, tasks[index], digest, attempt
            )

        def serial_one(index: int) -> SynthesisResult:
            return _solve_task(trace, tasks[index])

        return self._pool_map(len(tasks), make_pool, submit_one, serial_one)

    # -- batches (one task per trace) ---------------------------------

    def run_batch(
        self,
        items: Sequence[Tuple[TrafficTrace, SynthesisTask]],
        applications: Optional[Sequence[Optional[str]]] = None,
    ) -> List[SynthesisResult]:
        """Solve one synthesis point per (trace, task) pair, in order.

        Where :meth:`run_sweep` fans many tasks out over *one* shared
        trace, a batch fans out over many traces -- the scenario-suite
        pattern: each suite member contributes its own trace and its own
        analysis window. Caching works exactly as for sweeps (each item
        is keyed by its trace's fingerprint), identical items share one
        solve, and pool failures degrade to the serial path, so batch
        results are deterministic whatever the job count.

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
        results: List[Optional[SynthesisResult]] = [None] * len(items)
        pending: List[Tuple[int, Optional[str]]] = []
        for index, ((trace, task), application) in enumerate(zip(items, applications)):
            key = None
            if self.cache is not None:
                key = task_key(
                    trace_fingerprint(trace),
                    task.config,
                    task.window_size,
                    application,
                )
                cached = self.cache.get(key)
                if cached is not None:
                    results[index] = cached
                    continue
            pending.append((index, key))

        if pending:
            # Items with identical content (same trace fingerprint and
            # task) share one solve, keyed by the cache key when a cache
            # is active and by identity otherwise.
            distinct: List[Tuple[TrafficTrace, SynthesisTask]] = []
            slot: Dict[Tuple[str, SynthesisTask], int] = {}
            placement: List[int] = []
            for index, _key in pending:
                trace, task = items[index]
                ident = (trace_fingerprint(trace), task)
                if ident not in slot:
                    slot[ident] = len(distinct)
                    distinct.append(items[index])
                placement.append(slot[ident])
            solved = self._solve_batch(distinct)
            stored = set()
            for (index, key), position in zip(pending, placement):
                result = solved[position]
                results[index] = result
                if self.cache is not None and key is not None and key not in stored:
                    self.cache.put(key, result)
                    stored.add(key)
        return results  # type: ignore[return-value]

    def _solve_batch(
        self, items: Sequence[Tuple[TrafficTrace, SynthesisTask]]
    ) -> List[SynthesisResult]:
        with _tracing.span("engine.batch", items=len(items)):
            if self.jobs > 1 and len(items) > 1:
                return self._solve_batch_parallel(items)
            results = []
            for trace, task in items:
                warm_analytics(trace)
                results.append(_solve_task(trace, task))
            return results

    def _solve_batch_parallel(
        self, items: Sequence[Tuple[TrafficTrace, SynthesisTask]]
    ) -> List[SynthesisResult]:
        workers = min(self.jobs, len(items))

        def make_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context())

        def submit_one(pool: ProcessPoolExecutor, index: int, attempt: int):
            trace, task = items[index]
            return pool.submit(_solve_batch_item, index, trace, task, attempt)

        def serial_one(index: int) -> SynthesisResult:
            trace, task = items[index]
            warm_analytics(trace)
            return _solve_task(trace, task)

        return self._pool_map(len(items), make_pool, submit_one, serial_one)

    # -- latency replays ----------------------------------------------

    def run_replay_batch(self, tasks: Sequence[ReplayTask]) -> List[ReplayOutcome]:
        """Simulate every replay task, in task order.

        The scenario-suite pattern again: each suite member contributes
        one workload (a recorded trace or a program source) to replay on
        the shared candidate fabric. Tasks fan out over the pool --
        replay simulations are independent and each task is a portable
        workload description -- and any pool infrastructure failure
        degrades to the serial path, so outcomes are deterministic
        whatever the job count. Caching lives one layer up, in the
        pipeline's replay stage (the engine is handed only the misses).
        """
        with _tracing.span("engine.replay", tasks=len(tasks)):
            if self.jobs > 1 and len(tasks) > 1:
                return self._run_replays_parallel(tasks)
            return [_run_replay_task(task) for task in tasks]

    def _run_replays_parallel(self, tasks: Sequence[ReplayTask]) -> List[ReplayOutcome]:
        workers = min(self.jobs, len(tasks))

        def make_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context())

        def submit_one(pool: ProcessPoolExecutor, index: int, attempt: int):
            return pool.submit(_replay_in_worker, index, tasks[index], attempt)

        def serial_one(index: int) -> ReplayOutcome:
            return _run_replay_task(tasks[index])

        return self._pool_map(len(tasks), make_pool, submit_one, serial_one)

    # -- evaluation ---------------------------------------------------

    def evaluate_designs(
        self,
        application,
        designs: Sequence,
        budget: int,
    ) -> List[EvaluationOutcome]:
        """Simulate ``application`` on every design, in design order.

        Parallel execution rebuilds the application in each worker
        (program iterators are closures and do not pickle), which is
        only faithful for applications tagged with a ``registry_key``
        (default registry builds); customized or hand-built
        applications always run serially.
        """
        with _tracing.span("engine.evaluate", designs=len(designs)):
            if (
                self.jobs > 1
                and len(designs) > 1
                and getattr(application, "registry_key", None) is not None
            ):
                return self._evaluate_parallel(application, designs, budget)
            return [
                _simulate_outcome(
                    application,
                    design.it.as_list(),
                    design.ti.as_list(),
                    design.label,
                    design.bus_count,
                    budget,
                )
                for design in designs
            ]

    def _evaluate_parallel(
        self, application, designs: Sequence, budget: int
    ) -> List[EvaluationOutcome]:
        workers = min(self.jobs, len(designs))

        def make_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context())

        def submit_one(pool: ProcessPoolExecutor, index: int, attempt: int):
            design = designs[index]
            return pool.submit(
                _evaluate_in_worker,
                index,
                application.registry_key,
                tuple(design.it.binding),
                tuple(design.ti.binding),
                design.label,
                design.bus_count,
                budget,
                attempt,
            )

        def serial_one(index: int) -> EvaluationOutcome:
            design = designs[index]
            return _simulate_outcome(
                application,
                design.it.as_list(),
                design.ti.as_list(),
                design.label,
                design.bus_count,
                budget,
            )

        return self._pool_map(len(designs), make_pool, submit_one, serial_one)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cache = self.cache.cache_dir if self.cache is not None else None
        return f"<ExecutionEngine jobs={self.jobs} cache={cache}>"
