"""Request coalescing by content address.

The daemon content-addresses every job request (see
:mod:`repro.server.schemas`); the :class:`RequestCoalescer` is the
registry that turns identical addresses into shared work:

* two **in-flight** requests with the same fingerprint share one job --
  the second ``POST`` returns the first job's id (disposition
  ``"coalesced"``) and both clients poll the same solve;
* a fingerprint that already **finished** is served from the registry
  (disposition ``"finished"``) without re-queueing -- the artifact and
  whole-result stores below make that hit cheap across restarts too;
* a **failed** (or cancelled) job is evicted on admission, so
  resubmitting after a failure retries instead of replaying the stored
  error forever;
* **finished** entries expire after a TTL (when one is configured), so
  a long-lived daemon's registry does not grow one entry -- result
  payload included -- per distinct fingerprint forever. An expired
  fingerprint falls back to the whole-result cache, which still
  answers warmly.

All transitions happen under one lock; the check-then-register race two
concurrent submitters would otherwise hit (both miss, both enqueue) is
exactly what this type exists to close. The coalescer counts no
dispositions: the service tallies each admission once, in the metrics
registry's ``repro_requests_total``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro.server.jobs import Job

__all__ = ["RequestCoalescer"]


class RequestCoalescer:
    """Fingerprint -> job registry with single-flight admission.

    Parameters
    ----------
    finished_ttl:
        Seconds a finished (done) entry stays answerable from the
        registry; ``None`` (the default) keeps entries forever. Live
        (queued/running) entries never expire -- expiring one would
        break single-flight admission mid-solve.
    """

    def __init__(self, finished_ttl: Optional[float] = None) -> None:
        if finished_ttl is not None and finished_ttl <= 0:
            raise ValueError("finished_ttl must be > 0 or None")
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self.finished_ttl = finished_ttl
        self.ttl_evictions = 0

    def _expire_locked(self) -> None:
        """Evict finished entries past their TTL (caller holds the lock)."""
        if self.finished_ttl is None:
            return
        cutoff = time.time() - self.finished_ttl
        expired = [
            fingerprint
            for fingerprint, job in self._jobs.items()
            if job.is_terminal
            and job.finished_at is not None
            and job.finished_at <= cutoff
        ]
        for fingerprint in expired:
            del self._jobs[fingerprint]
        self.ttl_evictions += len(expired)

    def admit(
        self, fingerprint: str, create: Callable[[], Job]
    ) -> Tuple[Job, str]:
        """Admit a request, sharing any live job for ``fingerprint``.

        Returns ``(job, disposition)`` with disposition one of:

        ``"new"``
            No usable job existed; ``create()`` was called (under the
            lock, so exactly once per fingerprint) and its job is now
            the registry entry. The caller must enqueue it.
        ``"coalesced"``
            A queued or running job for the same fingerprint exists;
            that job is returned and nothing is enqueued.
        ``"finished"``
            The fingerprint already completed successfully; the done
            job (result attached) is returned without re-queueing.

        Failed/cancelled registry entries are evicted here so the new
        request retries from scratch, and expired finished entries are
        dropped first (see ``finished_ttl``).

        ``create()`` runs under the lock (exactly once per fingerprint)
        and may raise -- e.g. the service shedding load on a full queue
        -- in which case *nothing* is registered and the error
        propagates to the caller.
        """
        with self._lock:
            self._expire_locked()
            existing = self._jobs.get(fingerprint)
            if existing is not None:
                if existing.state in ("queued", "running"):
                    existing.coalesced += 1
                    return existing, "coalesced"
                if existing.state == "done":
                    return existing, "finished"
                # failed/cancelled: fall through, retry with a fresh job
                del self._jobs[fingerprint]
            job = create()
            self._jobs[fingerprint] = job
            return job, "new"

    def lookup(self, fingerprint: str) -> Optional[Job]:
        """The registry's job for ``fingerprint``, if any."""
        with self._lock:
            self._expire_locked()
            return self._jobs.get(fingerprint)

    def forget(self, fingerprint: str) -> None:
        """Drop the registry entry for ``fingerprint``, if any (used
        when the job registry evicts a job by TTL, so the coalescer
        never answers with a job the registry no longer knows). Counts
        toward ``ttl_evictions``: its only caller is TTL-driven."""
        with self._lock:
            if self._jobs.pop(fingerprint, None) is not None:
                self.ttl_evictions += 1

    def stats(self) -> Dict[str, int]:
        """The registry's own numbers for ``/v1/stats`` (one consistent
        read): TTL evictions and the live entry count."""
        with self._lock:
            return {
                "ttl_evictions": self.ttl_evictions,
                "registry_size": len(self._jobs),
            }
