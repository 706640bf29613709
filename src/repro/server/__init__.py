"""Synthesis-as-a-service: the ``repro serve`` daemon.

The reproduction's front ends so far were one-shot processes: build a
trace, solve, print, exit. This subpackage turns the same platform into
a long-lived HTTP/JSON service -- the deployment shape a design team
actually shares a solver farm through:

* :mod:`~repro.server.schemas` -- validated job requests with content
  fingerprints (the coalescing key),
* :mod:`~repro.server.coalesce` -- single-flight admission: identical
  in-flight requests share one solve,
* :mod:`~repro.server.jobs` -- the async job model and worker queue
  with graceful draining,
* :mod:`~repro.server.service` -- jobs wired to the execution engine,
  pipeline stores and caches (HTTP-free, directly testable),
* :mod:`~repro.server.app` -- the stdlib ``ThreadingHTTPServer``
  surface (``POST /v1/jobs``, ``GET /v1/jobs/<id>``, ``/v1/stats``,
  ``/v1/health``).

The daemon is hardened for long-lived operation: per-job wall-clock
timeouts, cancellation of queued jobs (``DELETE /v1/jobs/<id>``), TTL
eviction of finished jobs from both registries, queue-depth load
shedding (503 + ``Retry-After``), and a health endpoint that reports
*degraded* -- with reasons -- whenever jobs timed out or requests were
shed.

No third-party dependencies: the daemon is ``python -m``-grade stdlib
HTTP on top of the existing engine, exactly like the rest of the repo.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.server.coalesce": ("RequestCoalescer",),
        "repro.server.jobs": ("Job", "JobQueue"),
        "repro.server.schemas": (
            "DesignRequest",
            "JobRequest",
            "RequestError",
            "SuiteRequest",
            "parse_job_request",
        ),
        "repro.server.service": ("ServiceOverloaded", "SynthesisService"),
        "repro.server.app": ("SynthesisServer", "serve"),
    },
)

__all__ = [
    "RequestCoalescer",
    "Job",
    "JobQueue",
    "JobRequest",
    "DesignRequest",
    "SuiteRequest",
    "RequestError",
    "parse_job_request",
    "ServiceOverloaded",
    "SynthesisService",
    "SynthesisServer",
    "serve",
]
