"""HTTP surface of the synthesis daemon.

A thin, dependency-free translation layer: stdlib
:class:`~http.server.ThreadingHTTPServer` handlers parse the URL and
body, delegate to :class:`~repro.server.service.SynthesisService`, and
encode the answer as JSON. No synthesis logic lives here -- the service
is fully testable without sockets, and the HTTP tests only need to
cover the translation.

Endpoints (all JSON unless noted; see docs/http-api.md)::

    POST   /v1/jobs             submit a job         -> 202 {job, disposition}
    GET    /v1/jobs             list known jobs      -> 200 {jobs: [...]}
    GET    /v1/jobs/<id>        job status + result  -> 200 {state, ...}
    GET    /v1/jobs/<id>/trace  job span tree        -> 200 {trace_id, spans}
    DELETE /v1/jobs/<id>        cancel a queued job  -> 200 {state: cancelled}
    GET    /v1/stats            daemon observability -> 200 {...}
    GET    /v1/health           liveness+degradation -> 200 {status, ...}
    GET    /metrics             Prometheus text      -> 200 (text/plain)

Every request is itself measured: per-endpoint latency histograms and
a method/endpoint/status counter feed the same registry ``/metrics``
renders, with URL paths collapsed to low-cardinality templates
(``/v1/jobs/<id>`` rather than each job id).

``GET /v1/jobs/<id>?wait=<seconds>`` long-polls: the response is sent
as soon as the job turns terminal, or with its current state once the
timeout elapses. The parameter must be a non-negative finite number;
values above 60 s are clamped to 60 (the response says so), negative
or non-numeric values are a 400.

Errors are JSON bodies too -- ``{"error": {"message": ..., ...}}`` --
with 400 for malformed requests, 404 for unknown paths/jobs, 405 for
bad methods, 409 for cancelling a job that already started or
finished, 503 with a ``Retry-After`` header when the queue sheds load,
and 503 once shutdown began.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs import metrics as _metrics
from repro.obs.jsonlog import JsonLogger
from repro.server.schemas import RequestError
from repro.server.service import ServiceOverloaded, SynthesisService

__all__ = ["SynthesisServer", "serve"]

_MAX_BODY_BYTES = 8 * 1024 * 1024  # inline suites are small; 8 MiB is ample
_MAX_WAIT_SECONDS = 60.0

_HTTP_REQUESTS = _metrics.counter(
    "repro_http_requests_total",
    "HTTP requests served, by method, endpoint template and status.",
    ("method", "endpoint", "status"),
)
_HTTP_SECONDS = _metrics.histogram(
    "repro_http_request_seconds",
    "HTTP request handling latency by method and endpoint template.",
    ("method", "endpoint"),
)


def _endpoint_label(path: str) -> str:
    """Collapse a request path to a bounded endpoint template.

    Metrics labels must stay low-cardinality: every distinct label set
    is a live time series, so job ids (and arbitrary probe paths) are
    folded into templates instead of being recorded verbatim.
    """
    if path in ("/v1/jobs", "/v1/stats", "/v1/health", "/metrics"):
        return path
    if path.startswith("/v1/jobs/"):
        if path.endswith("/trace"):
            return "/v1/jobs/<id>/trace"
        return "/v1/jobs/<id>"
    return "other"


class _Handler(BaseHTTPRequestHandler):
    """One request; the service hangs off the server object."""

    server: "SynthesisServer"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: headers and body leave as separate writes, and with
    # Nagle on, the body waits for the client's delayed ACK of the
    # headers -- a ~40 ms stall on every keep-alive request.
    disable_nagle_algorithm = True

    # -- plumbing -----------------------------------------------------

    def log_message(self, fmt: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(fmt, *args)

    def send_response(self, code: int, message: Optional[str] = None) -> None:
        # Remembered so the dispatch wrapper can label the request
        # counter with the status actually sent.
        self._sent_status = code
        super().send_response(code, message)

    def _dispatch(self, method: str, handler) -> None:
        """Time one request and record it into the metrics registry.

        Long-poll waits (``?wait=``) count toward the latency histogram
        -- it measures handler occupancy, not just compute.
        """
        path, _ = self._route()
        endpoint = _endpoint_label(path)
        self._sent_status = 0
        began = time.perf_counter()
        try:
            handler()
        finally:
            elapsed = time.perf_counter() - began
            _HTTP_SECONDS.observe(elapsed, method=method, endpoint=endpoint)
            _HTTP_REQUESTS.inc(
                method=method,
                endpoint=endpoint,
                status=str(self._sent_status or 500),
            )
            log = self.server.service.log
            if log is not None:
                log.emit(
                    "http.request",
                    method=method,
                    endpoint=endpoint,
                    path=path,
                    status=self._sent_status or 500,
                    duration_s=round(elapsed, 6),
                )

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(
        self, status: int, body: str, content_type: str = "text/plain"
    ) -> None:
        raw = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def _send_error_json(self, status: int, message: str, **details) -> None:
        error: Dict[str, Any] = {"message": message}
        if details:
            error.update(details)
        self._send_json(status, {"error": error})

    def _read_json_body(self) -> Any:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header or "")
        except ValueError:
            raise RequestError("missing or invalid Content-Length header")
        if length < 0 or length > _MAX_BODY_BYTES:
            raise RequestError(
                f"request body must be 0..{_MAX_BODY_BYTES} bytes"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise RequestError(f"request body is not valid JSON: {error}")

    # -- routing ------------------------------------------------------

    def _route(self) -> Tuple[str, Dict[str, Any]]:
        parts = urlsplit(self.path)
        query = {
            key: values[-1]
            for key, values in parse_qs(parts.query).items()
        }
        return parts.path.rstrip("/") or "/", query

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler naming
        self._dispatch("POST", self._handle_post)

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler naming
        self._dispatch("GET", self._handle_get)

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib handler naming
        self._dispatch("DELETE", self._handle_delete)

    def do_PUT(self) -> None:  # noqa: N802 - stdlib handler naming
        self._dispatch("PUT", self._handle_other)

    do_PATCH = do_PUT

    def _handle_post(self) -> None:
        path, _query = self._route()
        if path != "/v1/jobs":
            self._send_error_json(404, f"no such resource: {path}")
            return
        if self.server.draining.is_set():
            self._send_error_json(503, "server is shutting down")
            return
        try:
            payload = self._read_json_body()
            job, disposition = self.server.service.submit(payload)
        except RequestError as error:
            self._send_error_json(400, str(error), **error.details)
            return
        except ServiceOverloaded as error:
            # Load shedding, not failure: tell the client when to retry.
            body = json.dumps(
                {"error": {"message": str(error), "queued": error.depth}},
                sort_keys=True,
            ).encode("utf-8")
            self.send_response(503)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Retry-After", f"{error.retry_after:g}")
            self.end_headers()
            self.wfile.write(body)
            return
        except RuntimeError:
            # The queue closed between the drain check and the submit.
            self._send_error_json(503, "server is shutting down")
            return
        self._send_json(
            202,
            {
                "job": job.id,
                "fingerprint": job.fingerprint,
                "disposition": disposition,
                "state": job.status(include_result=False)["state"],
            },
        )

    def _handle_get(self) -> None:
        path, query = self._route()
        if path == "/v1/health":
            self._send_json(200, self.server.service.health())
            return
        if path == "/v1/stats":
            self._send_json(200, self.server.service.stats())
            return
        if path == "/metrics":
            self._send_text(
                200,
                _metrics.render_prometheus(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if path == "/v1/jobs":
            jobs = [
                job.status(include_result=False)
                for job in self.server.service.queue.jobs()
            ]
            self._send_json(200, {"jobs": jobs})
            return
        if path.startswith("/v1/jobs/") and path.endswith("/trace"):
            job_id = path[len("/v1/jobs/"):-len("/trace")]
            trace = self.server.service.job_trace(job_id)
            if trace is None:
                self._send_error_json(404, f"no such job: {job_id}")
                return
            self._send_json(200, trace)
            return
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            job = self.server.service.queue.get(job_id)
            if job is None:
                self._send_error_json(404, f"no such job: {job_id}")
                return
            wait = query.get("wait")
            if wait is not None:
                try:
                    seconds = float(wait)
                except ValueError:
                    seconds = math.nan
                # Reject, don't silently repair: a negative or NaN/inf
                # wait is a caller bug, and Event.wait must never see it.
                if not math.isfinite(seconds) or seconds < 0:
                    self._send_error_json(
                        400,
                        "query parameter 'wait' must be a non-negative "
                        f"number of seconds (max {_MAX_WAIT_SECONDS:g})",
                    )
                    return
                job.wait(min(seconds, _MAX_WAIT_SECONDS))
            self._send_json(200, job.status())
            return
        self._send_error_json(404, f"no such resource: {path}")

    def _handle_delete(self) -> None:
        path, _query = self._route()
        if not path.startswith("/v1/jobs/"):
            self._send_error_json(405, "method not allowed")
            return
        job_id = path[len("/v1/jobs/"):]
        cancelled = self.server.service.cancel(job_id)
        if cancelled is None:
            self._send_error_json(404, f"no such job: {job_id}")
            return
        if not cancelled:
            job = self.server.service.queue.get(job_id)
            state = job.status(include_result=False)["state"] if job else "?"
            self._send_error_json(
                409,
                f"job {job_id} is {state}; only queued jobs are cancellable",
            )
            return
        job = self.server.service.queue.get(job_id)
        self._send_json(200, job.status(include_result=False))

    def _handle_other(self) -> None:
        self._send_error_json(405, "method not allowed")


class SynthesisServer(ThreadingHTTPServer):
    """The daemon: a threading HTTP server owning one service.

    ``start()`` serves on a background thread (tests and the CLI both
    use it); ``stop(drain=True)`` closes the listener, refuses new
    jobs, and drains the queue so in-flight jobs reach a terminal state
    before the call returns.
    """

    daemon_threads = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8321,
        engine_jobs: int = 1,
        cache_dir: Optional[str] = None,
        workers: int = 2,
        verbose: bool = False,
        job_timeout: Optional[float] = None,
        finished_ttl: Optional[float] = None,
        max_queue_depth: Optional[int] = None,
        trace: bool = True,
        log_json: bool = False,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.service = SynthesisService(
            engine_jobs=engine_jobs,
            cache_dir=cache_dir,
            workers=workers,
            job_timeout=job_timeout,
            finished_ttl=finished_ttl,
            max_queue_depth=max_queue_depth,
            trace=trace,
            log=JsonLogger() if log_json else None,
        )
        self.verbose = verbose
        self.draining = threading.Event()
        self._serve_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Serve requests on a background thread until :meth:`stop`."""
        self._serve_thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-serve",
            daemon=True,
        )
        self._serve_thread.start()

    def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: refuse new jobs, then drain the queue."""
        self.draining.set()
        self.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join()
            self._serve_thread = None
        self.server_close()
        self.service.close(drain=drain)


def serve(
    host: str = "127.0.0.1",
    port: int = 8321,
    engine_jobs: int = 1,
    cache_dir: Optional[str] = None,
    workers: int = 2,
    verbose: bool = False,
    job_timeout: Optional[float] = None,
    finished_ttl: Optional[float] = None,
    max_queue_depth: Optional[int] = None,
    trace: bool = True,
    log_json: bool = False,
) -> SynthesisServer:
    """Build and start a daemon; the caller owns ``stop()``."""
    server = SynthesisServer(
        host=host,
        port=port,
        engine_jobs=engine_jobs,
        cache_dir=cache_dir,
        workers=workers,
        verbose=verbose,
        job_timeout=job_timeout,
        finished_ttl=finished_ttl,
        max_queue_depth=max_queue_depth,
        trace=trace,
        log_json=log_json,
    )
    server.start()
    return server
