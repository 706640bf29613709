"""Server hardening: timeouts, cancellation, TTL eviction, shedding.

Service-level tests drive :class:`SynthesisService` (and the job
queue) directly with controllable executors -- blocking on an event or
sleeping past the timeout -- so every race is deterministic; one
HTTP-level test then proves the translation layer: 503 + Retry-After
on shedding, 400 on bad ``wait`` values, DELETE semantics, and the
degraded health report.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.server import (
    JobQueue,
    ServiceOverloaded,
    SynthesisServer,
    SynthesisService,
    parse_job_request,
)


def design_payload(threshold):
    return {"kind": "design", "app": "qsort", "threshold": threshold}


class TestJobTimeout:
    def test_overrunning_job_is_failed_and_counted(self):
        queue = JobQueue(
            lambda job: time.sleep(10.0), workers=1, job_timeout=0.05
        )
        try:
            job = queue.new_job(
                parse_job_request(design_payload(0.3)), "fp-timeout"
            )
            queue.submit(job)
            assert job.wait(5.0)
            assert job.state == "failed"
            assert "timed out after 0.05s" in job.error
            assert queue.timeouts() == 1
        finally:
            queue.shutdown(drain=False)

    def test_fast_job_is_untouched_by_the_timeout(self):
        queue = JobQueue(
            lambda job: {"ok": True}, workers=1, job_timeout=5.0
        )
        try:
            job = queue.new_job(
                parse_job_request(design_payload(0.3)), "fp-fast"
            )
            queue.submit(job)
            assert job.wait(5.0)
            assert job.state == "done"
            assert job.result == {"ok": True}
            assert queue.timeouts() == 0
        finally:
            queue.shutdown()

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError, match="job_timeout"):
            JobQueue(lambda job: {}, job_timeout=0.0)

    def test_timeout_degrades_service_health(self):
        service = SynthesisService(workers=1, job_timeout=0.05)
        service.queue._execute = lambda job: time.sleep(10.0)
        try:
            job, disposition = service.submit(design_payload(0.3))
            assert disposition == "new"
            assert job.wait(5.0)
            assert job.state == "failed"
            health = service.health()
            assert health["status"] == "degraded"
            assert any("timeout" in r for r in health["reasons"])
            assert service.stats()["queue"]["timeouts"] == 1
        finally:
            service.close(drain=False)


class TestCancellation:
    def test_queued_job_cancels_running_job_does_not(self):
        started = threading.Event()
        release = threading.Event()

        def blocking_execute(job):
            started.set()
            release.wait(10.0)
            return {"ok": True}

        service = SynthesisService(workers=1)
        service.queue._execute = blocking_execute
        try:
            running, _ = service.submit(design_payload(0.3))
            assert started.wait(5.0)
            queued, _ = service.submit(design_payload(0.35))

            assert service.cancel(queued.id) is True
            assert queued.state == "cancelled"
            assert queued.is_terminal
            assert queued.status()["error"] == "cancelled before execution"
            # Idempotence and the two non-cancellable answers.
            assert service.cancel(queued.id) is False
            assert service.cancel(running.id) is False
            assert service.cancel("job-999") is None

            release.set()
            assert running.wait(5.0)
            assert running.state == "done"
        finally:
            release.set()
            service.close(drain=False)

    def test_cancelled_job_is_skipped_by_the_worker(self):
        """A job cancelled while queued never executes: the worker's
        mark_running guard skips it."""
        ran = []
        release = threading.Event()

        def execute(job):
            ran.append(job.id)
            release.wait(5.0)
            return {}

        queue = JobQueue(execute, workers=1)
        try:
            first = queue.new_job(
                parse_job_request(design_payload(0.3)), "fp-a"
            )
            second = queue.new_job(
                parse_job_request(design_payload(0.35)), "fp-b"
            )
            queue.submit(first)
            queue.submit(second)
            assert second.cancel()
            release.set()
            assert first.wait(5.0)
            deadline = time.time() + 5.0
            while queue.active() and time.time() < deadline:
                time.sleep(0.01)
            assert ran == [first.id]
            assert second.state == "cancelled"
        finally:
            release.set()
            queue.shutdown(drain=False)


class TestTTLEviction:
    def test_finished_jobs_expire_from_both_registries(self):
        service = SynthesisService(workers=1, finished_ttl=0.05)
        service.queue._execute = lambda job: {"ok": True}
        try:
            job, disposition = service.submit(design_payload(0.3))
            assert disposition == "new"
            assert job.wait(5.0)
            # Before expiry: answered from the finished registry.
            again, disposition = service.submit(design_payload(0.3))
            assert again is job
            assert disposition == "finished"

            time.sleep(0.12)
            stats = service.stats()  # stats sweeps both registries
            assert service.queue.get(job.id) is None
            assert stats["coalescing"]["registry_size"] == 0
            assert stats["coalescing"]["ttl_evictions"] >= 1

            # A returning client simply resubmits and gets a new job.
            fresh, disposition = service.submit(design_payload(0.3))
            assert disposition == "new"
            assert fresh.id != job.id
        finally:
            service.close(drain=False)

    def test_no_ttl_means_no_eviction(self):
        service = SynthesisService(workers=1)
        service.queue._execute = lambda job: {"ok": True}
        try:
            job, _ = service.submit(design_payload(0.3))
            assert job.wait(5.0)
            service.stats()
            assert service.queue.get(job.id) is job
        finally:
            service.close(drain=False)


class TestLoadShedding:
    def test_new_requests_shed_at_the_depth_bound(self):
        started = threading.Event()
        release = threading.Event()

        def blocking_execute(job):
            started.set()
            release.wait(10.0)
            return {"ok": True}

        service = SynthesisService(workers=1, max_queue_depth=1)
        service.queue._execute = blocking_execute
        try:
            running, _ = service.submit(design_payload(0.3))
            assert started.wait(5.0)
            queued, _ = service.submit(design_payload(0.35))

            with pytest.raises(ServiceOverloaded) as excinfo:
                service.submit(design_payload(0.4))
            assert excinfo.value.depth == 1
            assert excinfo.value.retry_after > 0

            # Coalesced repeats of an admitted request are never shed.
            same, disposition = service.submit(design_payload(0.35))
            assert same is queued
            assert disposition == "coalesced"

            stats = service.stats()
            assert stats["shedding"] == {"max_queue_depth": 1, "shed": 1}
            assert any(
                "shed" in r for r in service.health()["reasons"]
            )

            # A shed request left no registry entry: once the queue
            # drains it is admitted like any new request.
            release.set()
            assert running.wait(5.0) and queued.wait(5.0)
            retried, disposition = service.submit(design_payload(0.4))
            assert disposition == "new"
            assert retried.wait(5.0)
        finally:
            release.set()
            service.close(drain=False)

    def test_invalid_depth_bound_rejected(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            SynthesisService(max_queue_depth=0)


class TestDegradedHealthPlumbing:
    def test_fault_summary_surfaces_in_stats(self):
        from repro.resilience import FaultPlan, FaultRule, install_plan

        service = SynthesisService()
        try:
            assert service.stats()["faults"] is None
            install_plan(
                FaultPlan(seed=8, rules={"cache.corrupt": FaultRule()})
            )
            faults = service.stats()["faults"]
            assert faults["seed"] == 8
            assert faults["points"] == ["cache.corrupt"]
        finally:
            service.close()


# -- HTTP translation layer -------------------------------------------


def http_request(base, path, method="GET", payload=None):
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(
        f"{base}{path}", data=data, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


class TestHTTPResilienceSurface:
    def test_shedding_cancellation_and_wait_validation(self):
        started = threading.Event()
        release = threading.Event()

        def blocking_execute(job):
            started.set()
            release.wait(10.0)
            return {"ok": True}

        server = SynthesisServer(port=0, workers=1, max_queue_depth=1)
        server.service.queue._execute = blocking_execute
        server.start()
        base = server.address
        try:
            status, body, _ = http_request(
                base, "/v1/jobs", "POST", design_payload(0.3)
            )
            assert status == 202
            running_id = body["job"]
            assert started.wait(5.0)

            status, body, _ = http_request(
                base, "/v1/jobs", "POST", design_payload(0.35)
            )
            assert status == 202
            queued_id = body["job"]

            # Queue full: 503 with machine-readable retry advice.
            status, body, headers = http_request(
                base, "/v1/jobs", "POST", design_payload(0.4)
            )
            assert status == 503
            assert "capacity" in body["error"]["message"]
            assert float(headers["Retry-After"]) > 0

            # Health now reports the shed, with a reason.
            status, health, _ = http_request(base, "/v1/health")
            assert status == 200
            assert health["status"] == "degraded"
            assert any("shed" in r for r in health["reasons"])

            # wait validation: negative, non-numeric and non-finite
            # are caller bugs -> 400; valid waits are clamped, not 4xx.
            for bad in ("-1", "soon", "nan", "inf"):
                status, body, _ = http_request(
                    base, f"/v1/jobs/{running_id}?wait={bad}"
                )
                assert status == 400, bad
                assert "non-negative" in body["error"]["message"]
            status, body, _ = http_request(
                base, f"/v1/jobs/{running_id}?wait=0"
            )
            assert status == 200
            assert body["state"] == "running"

            # DELETE: cancel the queued job; running and repeated
            # cancels are 409, unknown jobs 404.
            status, body, _ = http_request(
                base, f"/v1/jobs/{queued_id}", "DELETE"
            )
            assert status == 200
            assert body["state"] == "cancelled"
            status, body, _ = http_request(
                base, f"/v1/jobs/{queued_id}", "DELETE"
            )
            assert status == 409
            status, body, _ = http_request(
                base, f"/v1/jobs/{running_id}", "DELETE"
            )
            assert status == 409
            assert "running" in body["error"]["message"]
            status, _body, _ = http_request(
                base, "/v1/jobs/job-999", "DELETE"
            )
            assert status == 404

            release.set()
            status, body, _ = http_request(
                base, f"/v1/jobs/{running_id}?wait=5"
            )
            assert status == 200
            assert body["state"] == "done"

            status, stats, _ = http_request(base, "/v1/stats")
            assert status == 200
            assert stats["shedding"]["shed"] == 1
            assert stats["queue"]["jobs"].get("cancelled") == 1
        finally:
            release.set()
            server.stop(drain=True)
