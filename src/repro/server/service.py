"""The synthesis service: jobs wired to the platform underneath.

:class:`SynthesisService` is the HTTP-free core of the daemon -- the
app layer (:mod:`repro.server.app`) only translates requests into
:meth:`SynthesisService.submit` / job lookups / :meth:`stats` calls, so
everything here is directly testable without sockets.

One service owns:

* one :class:`~repro.exec.engine.ExecutionEngine` holding the
  directory's one :class:`~repro.exec.cache.ResultCache` (whose
  whole-result statistics ``/v1/stats`` reports) and the collector;
  every job runs on it, so concurrent jobs share every solved point;
* one :class:`~repro.server.coalesce.RequestCoalescer` keyed by request
  content fingerprints -- identical in-flight requests share a single
  solve, repeated finished requests are served from the registry;
* one :class:`~repro.server.jobs.JobQueue` of daemon workers.

Warm paths stack beneath the coalescer: a design request whose design
fingerprint the engine already holds completes instantly (disposition
``"cached"``) without ever enqueueing, and a request that must run still
reuses stage artifacts (windows, conflicts, bindings) through the
engine's one :class:`~repro.pipeline.PipelineRunner`: every design and
suite job of the daemon runs on it, so a threshold edit reads the
windows an earlier job computed from memory, not from disk. The
fingerprint's trace digest comes from the input-keyed ``collect`` stage
(:class:`~repro.pipeline.CollectStage`), so even a restarted daemon
answers a repeat request without simulating the application. The warm
lookup runs on the HTTP handler thread and never simulates or solves:
a digest the collector does not already store queues the job, which
collects on its worker.

Each admission is tallied once, in the registry's
``repro_requests_total{disposition}``; ``/v1/stats`` and ``/v1/health``
read that family's growth since the service was built (as they read
``repro_solves_total`` for ``solves.in_process``), so services that
overlap in one process share those numbers. The ``cache`` section is
the whole-result family of ``repro_cache_events_total`` since the
engine's cache was built.

Per-job progress: a job runs with its
:meth:`~repro.server.jobs.Job.record_progress` as the worker thread's
:func:`~repro.pipeline.store.progress_sink`, so pollers see live
per-stage computed/memo-hit/disk-hit tallies -- ``collect`` and the
engine's whole-result ``design`` lookup included -- of that job alone,
however many workers share the runner.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

# Preloaded for suite jobs: scenario traces resolve their generators by
# name only when one must be built, and no request may compile a module.
import repro.traffic.profiles  # noqa: F401
import repro.traffic.synthetic  # noqa: F401
from repro.apps import build_application
from repro.core import SynthesisConfig
from repro.core.instrumentation import SOLVE_COUNTER
from repro.exec.engine import ExecutionEngine, SynthesisTask
from repro.exec.serialize import RESULT_FORMAT, result_to_dict
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.obs.jsonlog import JsonLogger
from repro.pipeline import PipelineRunner, TraceSource
from repro.pipeline.store import progress_sink
from repro.resilience import fault_summary
from repro.scenarios import ScenarioSuiteRunner, build_suite, suite_from_dict
from repro.server.coalesce import RequestCoalescer
from repro.server.jobs import Job, JobQueue
from repro.server.schemas import (
    DesignRequest,
    SuiteRequest,
    parse_job_request,
)

__all__ = ["SynthesisService", "ServiceOverloaded", "DESIGN_REPORT_FORMAT"]

DESIGN_REPORT_FORMAT = "repro-server-design-v1"

_REQUESTS_TOTAL = _metrics.counter(
    "repro_requests_total",
    "Admitted job requests by disposition (new/coalesced/finished/"
    "cached/shed).",
    ("disposition",),
)
_DISPOSITIONS = ("new", "cached", "coalesced", "finished", "shed")

_QUEUE_DEPTH = _metrics.gauge(
    "repro_queue_depth", "Jobs admitted but not yet picked up by a worker."
)
_JOBS_ACTIVE = _metrics.gauge(
    "repro_jobs_active", "Jobs currently executing on a worker thread."
)


class ServiceOverloaded(RuntimeError):
    """The job queue is at capacity; the request was shed, not queued.

    Raised from admission (inside the coalescer's ``create`` callback,
    so nothing is registered for the shed fingerprint) when
    ``max_queue_depth`` is configured and reached. The app layer maps
    it to ``503`` with a ``Retry-After`` header -- load shedding is an
    invitation to come back, not a failure of the request itself.
    """

    def __init__(self, depth: int, retry_after: float = 1.0) -> None:
        super().__init__(
            f"job queue at capacity ({depth} queued); retry shortly"
        )
        self.depth = depth
        self.retry_after = retry_after


class SynthesisService:
    """Content-addressed synthesis jobs over the execution platform.

    Parameters
    ----------
    cache_dir:
        Whole-result/stage cache directory; ``None`` disables every
        disk layer (in-flight coalescing still works).
    workers:
        Concurrent job slots in the queue.
    job_timeout:
        Per-job wall-clock bound in seconds (see
        :class:`~repro.server.jobs.JobQueue`); ``None`` disables it.
    finished_ttl:
        Seconds finished jobs stay answerable from the registries
        (job index and coalescer alike) before eviction; ``None``
        keeps them forever.
    max_queue_depth:
        Admission bound: a *new* request arriving while this many jobs
        are already queued is shed with :class:`ServiceOverloaded`
        (503 at the HTTP layer). Coalesced/finished/cached requests
        are never shed -- they cost no queue slot. ``None`` disables
        shedding.
    trace:
        Arm span tracing for the service's lifetime (the default): each
        executed job gets its own trace tree, retrievable via
        :meth:`job_trace` (``GET /v1/jobs/<id>/trace``). When tracing
        was already armed by the caller, the service joins it and
        leaves disarming to whoever armed it.
    log:
        An optional :class:`~repro.obs.jsonlog.JsonLogger`; when given,
        one JSON object per admission and job transition goes to
        stderr (the ``repro serve --log-json`` mode).
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        workers: int = 2,
        job_timeout: Optional[float] = None,
        finished_ttl: Optional[float] = None,
        max_queue_depth: Optional[int] = None,
        trace: bool = True,
        log: Optional[JsonLogger] = None,
    ) -> None:
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 or None")
        self.log = log
        self._armed_tracing = False
        if trace and not _tracing.tracing_enabled():
            _tracing.arm_tracing()
            self._armed_tracing = True
        # The engine's collector serves the service's lifetime: its
        # memory layer keeps each app's trace across requests, its disk
        # layer (when there is a cache directory) across restarts.
        self.engine = ExecutionEngine(cache=cache_dir)
        self.coalescer = RequestCoalescer(finished_ttl=finished_ttl)
        self.queue = JobQueue(
            self._execute, workers=workers, job_timeout=job_timeout
        )
        self.finished_ttl = finished_ttl
        self.max_queue_depth = max_queue_depth
        # Dispositions and ``solves.in_process`` are the registry's
        # growth since this cut, from every thread.
        self._cut = _metrics.REGISTRY.snapshot()
        # Queue gauges are callback-backed: sampled at scrape time, so
        # they are always current and cost nothing between scrapes.
        _QUEUE_DEPTH.set_function(self.queue.depth)
        _JOBS_ACTIVE.set_function(self.queue.active)

    def close(self, drain: bool = True) -> None:
        """Stop the queue (draining by default) and detach the gauges."""
        self.queue.shutdown(drain=drain)
        _QUEUE_DEPTH.set_function(None)
        _JOBS_ACTIVE.set_function(None)
        if self._armed_tracing:
            _tracing.disarm_tracing()
            self._armed_tracing = False

    # -- admission ----------------------------------------------------

    def submit(self, payload: Any) -> Tuple[Job, str]:
        """Parse, content-address, coalesce and (if new) enqueue.

        Returns ``(job, disposition)`` where disposition extends the
        coalescer's vocabulary with ``"cached"``: the request was new to
        the registry but its result was already in the whole-result
        cache, so the job completed synchronously without queueing.

        Raises :class:`~repro.server.schemas.RequestError` on malformed
        payloads -- nothing invalid is ever admitted -- and
        :class:`ServiceOverloaded` when a genuinely new request finds
        the queue at its configured depth bound (shedding happens
        inside the coalescer's ``create`` callback, so a shed request
        leaves no registry entry behind and coalesced/finished/cached
        answers are never shed).
        """
        request = parse_job_request(payload)
        fingerprint = request.fingerprint()
        self._evict_expired()
        job, disposition = self.coalescer.admit(
            fingerprint,
            lambda: self._admit_new(request, fingerprint),
        )
        if disposition != "new":
            self._record_admission(fingerprint, disposition)
            return job, disposition
        warm = self._warm_lookup(request)
        if warm is not None:
            job.mark_done(warm)
            self._record_admission(fingerprint, "cached")
            return job, "cached"
        self.queue.submit(job)
        self._record_admission(fingerprint, "new")
        return job, "new"

    def _record_admission(self, fingerprint: str, disposition: str) -> None:
        _REQUESTS_TOTAL.inc(disposition=disposition)
        if self.log is not None:
            self.log.emit(
                "request.admitted",
                fingerprint=fingerprint,
                disposition=disposition,
            )

    def _admit_new(self, request, fingerprint: str) -> Job:
        """The coalescer's ``create`` callback: shed or index a job."""
        if self.max_queue_depth is not None:
            depth = self.queue.depth()
            if depth >= self.max_queue_depth:
                self._record_admission(fingerprint, "shed")
                raise ServiceOverloaded(depth)
        return self.queue.new_job(request, fingerprint)

    def _evict_expired(self) -> None:
        """Opportunistic TTL maintenance (no background thread needed:
        any submit or stats read sweeps both registries)."""
        if self.finished_ttl is None:
            return
        for job in self.queue.evict_terminal(self.finished_ttl):
            self.coalescer.forget(job.fingerprint)

    def cancel(self, job_id: str) -> Optional[bool]:
        """Cancel a queued job: ``True`` if cancelled, ``False`` if the
        job exists but is running or terminal, ``None`` if unknown."""
        job = self.queue.get(job_id)
        if job is None:
            return None
        return job.cancel()

    def _warm_lookup(self, request) -> Optional[Dict[str, Any]]:
        """A completed result from the engine's caches, or ``None``.

        Runs on the submitting thread, so it only looks up: the trace
        digest must already be stored by the collector (in memory or on
        disk) and the point by the engine. A restarted daemon therefore
        still answers repeat requests without queueing them, and a miss
        queues the job, which collects and solves on a worker. Suite
        reports are not whole-result cached (their stage artifacts
        are), so suites always queue -- their warm path is fast, not
        instant.
        """
        if not isinstance(request, DesignRequest):
            return None
        source = self.engine.collector.lookup(build_application(request.app))
        if source is None:
            return None
        return self._design(request, source)

    # -- execution ----------------------------------------------------

    def _execute(self, job: Job) -> Dict[str, Any]:
        request = job.request
        began = time.perf_counter()
        if self.log is not None:
            self.log.emit(
                "job.started",
                job=job.id,
                kind=request.kind,
                fingerprint=job.fingerprint,
            )
        try:
            with _tracing.root_span(
                f"job.{request.kind}",
                job=job.id,
                fingerprint=job.fingerprint[:12],
            ) as root:
                # Published immediately, not on completion: pollers of a
                # running job can already follow its partial trace.
                job.trace_id = root.trace_id or None
                if isinstance(request, DesignRequest):
                    result = self._run_design(job, request)
                elif isinstance(request, SuiteRequest):
                    result = self._run_suite(job, request)
                else:  # pragma: no cover - parser admits only known kinds
                    raise TypeError(
                        f"no executor for request type "
                        f"{type(request).__name__}"
                    )
        except Exception as error:
            if self.log is not None:
                self.log.emit(
                    "job.finished",
                    job=job.id,
                    state="failed",
                    error=f"{type(error).__name__}: {error}",
                    duration_s=round(time.perf_counter() - began, 6),
                    trace_id=job.trace_id,
                )
            raise
        if self.log is not None:
            self.log.emit(
                "job.finished",
                job=job.id,
                state="done",
                duration_s=round(time.perf_counter() - began, 6),
                trace_id=job.trace_id,
            )
        return result

    def _design(
        self,
        request: DesignRequest,
        source: TraceSource,
        solve: bool = False,
    ) -> Optional[Dict[str, Any]]:
        """The request's design payload through the engine's
        lookup-or-solve step: on a miss solved on the engine's runner
        with ``solve``, else ``None``."""
        config = SynthesisConfig(
            window_size=request.window,
            overlap_threshold=request.threshold,
            max_targets_per_bus=request.maxtb,
        )
        window = request.resolved_window()
        result = self.engine.lookup_or_solve(
            source.trace if solve else None,
            SynthesisTask(config=config, window_size=window),
            source.digest,
        )
        if result is None:
            return None
        return {
            "format": DESIGN_REPORT_FORMAT,
            "app": request.app,
            "window": window,
            "design_fingerprint": PipelineRunner.design_fingerprint(
                source.digest, config, window
            ),
            "result": result_to_dict(result),
            "result_format": RESULT_FORMAT,
        }

    def _run_design(
        self, job: Job, request: DesignRequest
    ) -> Dict[str, Any]:
        with progress_sink(job.record_progress):
            source = self.engine.collector.source(
                build_application(request.app)
            )
            return self._design(request, source, solve=True)

    def _run_suite(self, job: Job, request: SuiteRequest) -> Dict[str, Any]:
        if request.suite:
            suite = build_suite(request.suite)
        else:
            suite = suite_from_dict(request.suite_dict())
        runner = ScenarioSuiteRunner(
            engine=self.engine,
            config=SynthesisConfig(
                overlap_threshold=request.threshold,
                max_targets_per_bus=request.maxtb,
            ),
            policy=request.policy,
            min_weight=request.min_weight,
            replay_latency=request.replay_latency,
        )
        with progress_sink(job.record_progress):
            return runner.run(suite).to_dict()

    # -- observability ------------------------------------------------

    def _dispositions(self, now: Dict[str, Any]) -> Dict[str, int]:
        """Admissions by disposition between the service's cut and the
        registry snapshot ``now``."""
        grown = _metrics.growth(self._cut, now, _REQUESTS_TOTAL.name)
        return {name: int(grown.get((name,), 0)) for name in _DISPOSITIONS}

    def job_trace(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The span tree of one job (``GET /v1/jobs/<id>/trace``).

        ``None`` for unknown jobs. A known job whose tracing was
        disarmed (or that has not started) answers with an empty span
        list rather than a 404 -- the job exists, it just has no trace.
        """
        job = self.queue.get(job_id)
        if job is None:
            return None
        spans: List[Dict[str, Any]] = []
        if job.trace_id is not None:
            spans = [
                span.to_dict()
                for span in _tracing.collect_spans(trace_id=job.trace_id)
            ]
        return {"job": job.id, "trace_id": job.trace_id, "spans": spans}

    def degraded_reasons(self) -> list:
        """Why the service considers itself degraded (empty = healthy).

        Degraded is sticky by design: the counters accumulate for the
        daemon's lifetime, so a health probe after a burst of timeouts
        still reports that something went wrong -- operators reset by
        restarting, not by waiting out a rolling window.
        """
        reasons = []
        timeouts = self.queue.timeouts()
        if timeouts:
            reasons.append(f"{timeouts} job(s) hit the per-job timeout")
        shed = self._dispositions(_metrics.REGISTRY.snapshot())["shed"]
        if shed:
            reasons.append(f"{shed} request(s) shed at the queue bound")
        return reasons

    def health(self) -> Dict[str, Any]:
        """The ``/v1/health`` payload: liveness plus degradation."""
        reasons = self.degraded_reasons()
        return {
            "status": "degraded" if reasons else "ok",
            "degraded": bool(reasons),
            "reasons": reasons,
        }

    def stats(self) -> Dict[str, Any]:
        """The ``/v1/stats`` payload (see docs/http-api.md)."""
        self._evict_expired()
        jobs = self.queue.jobs()
        states: Dict[str, int] = {}
        for job in jobs:
            states[job.state] = states.get(job.state, 0) + 1
        # Atomic snapshots, not field-by-field reads: one locked cut per
        # source, so a concurrent admission or solve cannot make two
        # numbers of one source disagree with each other or with their
        # total.
        now = _metrics.REGISTRY.snapshot()
        served = self._dispositions(now)
        solved = _metrics.growth(self._cut, now, "repro_solves_total")
        solves = SOLVE_COUNTER.snapshot()
        payload: Dict[str, Any] = {
            "queue": {
                "depth": self.queue.depth(),
                "active": self.queue.active(),
                "jobs": states,
                "timeouts": self.queue.timeouts(),
                "job_timeout": self.queue.job_timeout,
            },
            "coalescing": {
                "submitted": sum(served.values()),
                "executed": served["new"] + served["cached"],
                "coalesced": served["coalesced"],
                "finished_hits": served["finished"],
                **self.coalescer.stats(),
                "cached_hits": served["cached"],
            },
            "shedding": {
                "max_queue_depth": self.max_queue_depth,
                "shed": served["shed"],
            },
            "faults": fault_summary(),
            "solves": {
                "feasibility": solves["feasibility"],
                "binding": solves["binding"],
                "in_process": int(sum(solved.values())),
            },
        }
        cache = self.engine.cache
        if cache is not None:
            usage = cache.usage()
            cache_stats = cache.stats
            payload["cache"] = {
                "dir": str(cache.cache_dir),
                "entries": usage.entries,
                "total_bytes": usage.total_bytes,
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "stores": cache_stats.stores,
                "write_errors": cache_stats.write_errors,
            }
        else:
            payload["cache"] = None
        return payload
