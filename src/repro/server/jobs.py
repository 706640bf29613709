"""Asynchronous job model and worker queue of the synthesis daemon.

A :class:`Job` is one admitted unit of work: it carries the parsed
request, its content fingerprint, a
queued/running/done/failed/cancelled state machine, live per-stage
progress (fed by the pipeline's
:class:`~repro.pipeline.store.StageCounters` observers) and -- once
terminal -- either the JSON result or the error message. Jobs are
plain shared-state objects: HTTP handler threads read them while a
worker thread mutates them, so every mutation happens under the job's
lock, :meth:`Job.status` returns a consistent copy, and the terminal
transitions are one-way -- a late writer (a worker racing a
cancellation, a timed-out job finally finishing) finds the state
already terminal and its mark becomes a no-op instead of a resurrection.

The :class:`JobQueue` runs jobs on a few daemon worker threads fed
from a FIFO; each job executes serially on its thread. Shutdown is graceful by default: the queue
stops accepting work, sends one sentinel per worker, and joins them --
every job admitted before shutdown still runs to a terminal state, so
clients polling an in-flight job never see it vanish. An optional
per-job wall-clock timeout bounds each execution: an overrunning job is
marked failed and *abandoned* (its runner thread is left to finish into
the no-op guard) so one pathological request cannot pin a worker slot
forever from the clients' point of view.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.server.schemas import JobRequest

__all__ = ["Job", "JobQueue"]

_STATES = ("queued", "running", "done", "failed", "cancelled")


class Job:
    """One admitted synthesis job (see module docstring)."""

    def __init__(self, job_id: str, request: JobRequest, fingerprint: str):
        self.id = job_id
        self.request = request
        self.fingerprint = fingerprint
        self.state = "queued"
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self.coalesced = 0
        """How many later identical requests shared this job."""
        self.trace_id: Optional[str] = None
        """Root trace id of this job's span tree (``None`` until the
        job starts executing, or forever when tracing is disarmed)."""
        self.progress: Dict[str, Dict[str, int]] = {}
        """Live per-stage tallies: ``{stage: {computed, memo_hit, disk_hit}}``."""
        self._lock = threading.Lock()
        self._terminal = threading.Event()

    # -- worker-side transitions --------------------------------------
    #
    # Every transition returns whether it took effect: terminal states
    # (done/failed/cancelled) are absorbing, so a worker that lost a
    # race -- against a cancellation, or against its own timeout -- gets
    # ``False`` back and the job's terminal answer stays what the first
    # writer made it.

    def mark_running(self) -> bool:
        with self._lock:
            if self.state != "queued":
                return False
            self.state = "running"
            self.started_at = time.time()
            return True

    def mark_done(self, result: Dict[str, Any]) -> bool:
        with self._lock:
            if self.state in ("done", "failed", "cancelled"):
                return False
            self.state = "done"
            self.result = result
            self.finished_at = time.time()
        self._terminal.set()
        return True

    def mark_failed(self, error: str) -> bool:
        with self._lock:
            if self.state in ("done", "failed", "cancelled"):
                return False
            self.state = "failed"
            self.error = error
            self.finished_at = time.time()
        self._terminal.set()
        return True

    def cancel(self) -> bool:
        """Cancel the job if it has not started; ``True`` on success.

        Only queued jobs are cancellable: a running solve holds real
        resources the thread model cannot safely reclaim mid-flight,
        and a terminal job already has its answer. A cancelled job is
        terminal (pollers wake immediately) and the worker that later
        dequeues it skips execution via the :meth:`mark_running` guard.
        """
        with self._lock:
            if self.state != "queued":
                return False
            self.state = "cancelled"
            self.error = "cancelled before execution"
            self.finished_at = time.time()
        self._terminal.set()
        return True

    @property
    def is_terminal(self) -> bool:
        return self._terminal.is_set()

    def record_progress(self, kind: str, stage: str) -> None:
        """Tally one stage event (wired to ``StageCounters.subscribe``)."""
        with self._lock:
            row = self.progress.setdefault(
                stage,
                {"computed": 0, "memo_hit": 0, "disk_hit": 0},
            )
            row[kind] = row.get(kind, 0) + 1

    # -- reader side --------------------------------------------------

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal; ``True`` if it is."""
        return self._terminal.wait(timeout)

    def status(self, include_result: bool = True) -> Dict[str, Any]:
        """A consistent JSON-ready snapshot of this job."""
        with self._lock:
            payload: Dict[str, Any] = {
                "job": self.id,
                "kind": self.request.kind,
                "description": self.request.describe(),
                "fingerprint": self.fingerprint,
                "state": self.state,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "coalesced": self.coalesced,
                "trace_id": self.trace_id,
                "progress": {
                    stage: dict(row) for stage, row in self.progress.items()
                },
            }
            if self.state in ("failed", "cancelled"):
                payload["error"] = self.error
            if include_result and self.state == "done":
                payload["result"] = self.result
            return payload


class JobQueue:
    """FIFO of jobs drained by ``workers`` daemon threads.

    Parameters
    ----------
    execute:
        ``execute(job)`` runs one job to completion and returns its JSON
        result; exceptions mark the job failed. Provided by
        :class:`~repro.server.service.SynthesisService`.
    workers:
        Concurrent solver slots: each running job solves serially on
        its own thread.
    job_timeout:
        Optional wall-clock bound in seconds on one job's execution.
        An overrunning job is marked failed (clients polling it get a
        terminal answer) and abandoned: its runner thread keeps going
        as a daemon and its eventual completion is absorbed by the
        terminal-state guard. ``None`` (the default) disables the bound.
    """

    def __init__(
        self,
        execute: Callable[[Job], Dict[str, Any]],
        workers: int = 2,
        job_timeout: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be > 0 or None")
        self._execute = execute
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._accepting = True
        self._active = 0
        self.job_timeout = job_timeout
        self._timeouts = 0
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-job-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def new_job(self, request: JobRequest, fingerprint: str) -> Job:
        """Create and index a job record (not yet enqueued)."""
        job = Job(f"job-{next(self._ids)}", request, fingerprint)
        with self._lock:
            self._jobs[job.id] = job
            self._order.append(job.id)
        return job

    def submit(self, job: Job) -> None:
        """Enqueue ``job`` for execution."""
        with self._lock:
            if not self._accepting:
                raise RuntimeError("job queue is shutting down")
        self._queue.put(job)

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every known job, oldest first."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def depth(self) -> int:
        """Jobs admitted but not yet picked up by a worker."""
        return self._queue.qsize()

    def active(self) -> int:
        """Jobs currently executing on a worker."""
        with self._lock:
            return self._active

    def timeouts(self) -> int:
        """Jobs failed by the per-job wall-clock timeout so far."""
        with self._lock:
            return self._timeouts

    def evict_terminal(self, ttl: float) -> List[Job]:
        """Forget terminal jobs older than ``ttl`` seconds.

        The registry otherwise grows one :class:`Job` (request, result
        payload and all) per distinct fingerprint for the daemon's
        lifetime. Eviction drops jobs whose terminal timestamp is more
        than ``ttl`` seconds old; a polling client that comes back
        later gets a 404 and simply resubmits (the whole-result cache
        still answers warmly). Returns the evicted jobs, so the caller
        can expire their fingerprints from the coalescing registry too.
        """
        if ttl < 0:
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        cutoff = time.time() - ttl
        with self._lock:
            evicted = [
                job
                for job_id in self._order
                if (job := self._jobs[job_id]).is_terminal
                and job.finished_at is not None
                and job.finished_at <= cutoff
            ]
            if not evicted:
                return []
            gone = {job.id for job in evicted}
            for job_id in gone:
                del self._jobs[job_id]
            self._order = [j for j in self._order if j not in gone]
            return evicted

    def _run_job(self, job: Job) -> None:
        """Execute one job to a terminal mark (both timeout modes)."""
        try:
            result = self._execute(job)
        except Exception as error:  # job isolation: one bad job
            job.mark_failed(f"{type(error).__name__}: {error}")
        else:
            job.mark_done(result)

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:  # shutdown sentinel
                self._queue.task_done()
                return
            if not job.mark_running():  # cancelled while queued
                self._queue.task_done()
                continue
            with self._lock:
                self._active += 1
            try:
                if self.job_timeout is None:
                    self._run_job(job)
                else:
                    runner = threading.Thread(
                        target=self._run_job,
                        args=(job,),
                        name=f"{threading.current_thread().name}-run",
                        daemon=True,
                    )
                    runner.start()
                    runner.join(self.job_timeout)
                    if runner.is_alive():
                        # Abandon the runner: it finishes into the
                        # terminal-state guard; the client's answer is
                        # this failure.
                        if job.mark_failed(
                            f"timed out after {self.job_timeout:g}s"
                        ):
                            with self._lock:
                                self._timeouts += 1
            finally:
                with self._lock:
                    self._active -= 1
                self._queue.task_done()

    def shutdown(self, drain: bool = True) -> None:
        """Stop the workers.

        With ``drain=True`` (the default), already-queued jobs run to
        completion before the workers exit; with ``drain=False`` the
        queue is emptied first and the abandoned jobs are marked failed
        so no poller waits forever on a job that will never run.
        """
        with self._lock:
            if not self._accepting:
                return
            self._accepting = False
        if not drain:
            while True:
                try:
                    job = self._queue.get_nowait()
                except queue.Empty:
                    break
                if job is not None:
                    job.mark_failed("server shut down before execution")
                self._queue.task_done()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join()
