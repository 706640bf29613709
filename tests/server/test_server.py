"""End-to-end and unit coverage of the ``repro serve`` daemon.

The acceptance property of the whole server PR lives here: two
concurrent identical submissions perform exactly ONE pipeline solve,
proved by a process-global solve-counter assertion (the counter tallies
every MILP/assignment invocation, so a duplicated solve cannot hide).
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.instrumentation import SOLVE_COUNTER
from repro.exec import ResultCache
from repro.server import (
    DesignRequest,
    JobQueue,
    RequestCoalescer,
    RequestError,
    SynthesisServer,
    SynthesisService,
    parse_job_request,
)
from repro.server.schemas import SuiteRequest


# -- helpers ----------------------------------------------------------


def http_post(base, payload):
    request = urllib.request.Request(
        f"{base}/v1/jobs",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def http_get(base, path):
    try:
        with urllib.request.urlopen(f"{base}{path}") as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def http_method(base, path, method):
    request = urllib.request.Request(f"{base}{path}", method=method)
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


# -- request schemas --------------------------------------------------


class TestSchemas:
    def test_design_request_parses_with_defaults(self):
        request = parse_job_request({"kind": "design", "app": "qsort"})
        assert isinstance(request, DesignRequest)
        assert request.app == "qsort"
        assert request.window is None
        assert request.backend == "assignment"

    def test_fingerprint_independent_of_default_spelling(self):
        from repro.apps import build_application

        implicit = parse_job_request({"kind": "design", "app": "qsort"})
        explicit = parse_job_request(
            {
                "kind": "design",
                "app": "qsort",
                "window": build_application("qsort").default_window,
                "threshold": 0.3,
                "maxtb": 4,
                "backend": "assignment",
            }
        )
        assert implicit.fingerprint() == explicit.fingerprint()

    def test_fingerprint_differs_across_semantics(self):
        base = parse_job_request({"kind": "design", "app": "qsort"})
        other = parse_job_request(
            {"kind": "design", "app": "qsort", "threshold": 0.2}
        )
        assert base.fingerprint() != other.fingerprint()

    def test_non_object_body_rejected(self):
        with pytest.raises(RequestError, match="JSON object"):
            parse_job_request(["kind", "design"])

    def test_missing_kind_rejected(self):
        with pytest.raises(RequestError, match="'kind'"):
            parse_job_request({"app": "qsort"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(RequestError, match="unknown job kind"):
            parse_job_request({"kind": "frobnicate"})

    def test_unknown_field_rejected(self):
        with pytest.raises(RequestError, match="unknown request field"):
            parse_job_request(
                {"kind": "design", "app": "qsort", "wibble": 1}
            )

    def test_unknown_app_reports_choices(self):
        with pytest.raises(RequestError) as excinfo:
            parse_job_request({"kind": "design", "app": "nope"})
        assert "qsort" in excinfo.value.details["choices"]

    def test_out_of_range_threshold_rejected(self):
        with pytest.raises(RequestError, match="threshold"):
            parse_job_request(
                {"kind": "design", "app": "qsort", "threshold": 0.9}
            )

    def test_suite_requires_exactly_one_source(self):
        with pytest.raises(RequestError, match="exactly one"):
            parse_job_request({"kind": "suite"})

    def test_unknown_suite_rejected(self):
        with pytest.raises(RequestError, match="unknown suite"):
            parse_job_request({"kind": "suite", "suite": "nope"})

    def test_inline_suite_round_trips_through_fingerprint(self):
        from repro.scenarios import SUITES, build_suite, suite_to_dict

        name = sorted(SUITES)[0]
        payload = suite_to_dict(build_suite(name))
        request = parse_job_request(
            {"kind": "suite", "suite_payload": payload}
        )
        assert isinstance(request, SuiteRequest)
        assert request.suite_dict() == payload
        # Key order must not matter to the content address.
        shuffled = dict(reversed(list(payload.items())))
        again = parse_job_request(
            {"kind": "suite", "suite_payload": shuffled}
        )
        assert request.fingerprint() == again.fingerprint()

    def test_invalid_inline_suite_rejected(self):
        with pytest.raises(RequestError, match="invalid inline suite"):
            parse_job_request(
                {"kind": "suite", "suite_payload": {"format": "wrong"}}
            )


# -- coalescer --------------------------------------------------------


class TestRequestCoalescer:
    def _job(self):
        queue = JobQueue(lambda job: {}, workers=1)
        job = queue.new_job(
            parse_job_request({"kind": "design", "app": "qsort"}), "fp"
        )
        queue.shutdown()
        return job

    def test_single_flight_admission(self):
        coalescer = RequestCoalescer()
        job = self._job()
        first, disposition = coalescer.admit("fp", lambda: job)
        assert disposition == "new" and first is job

        shared, disposition = coalescer.admit("fp", lambda: 1 / 0)
        assert disposition == "coalesced" and shared is job
        assert job.coalesced == 1

        job.mark_done({"ok": True})
        done, disposition = coalescer.admit("fp", lambda: 1 / 0)
        assert disposition == "finished" and done is job

        stats = coalescer.stats()
        assert stats["submitted"] == 3
        assert stats["executed"] == 1
        assert stats["coalesced"] == 1
        assert stats["finished_hits"] == 1

    def test_failed_jobs_are_retried(self):
        coalescer = RequestCoalescer()
        failed = self._job()
        coalescer.admit("fp", lambda: failed)
        failed.mark_failed("boom")
        retry = self._job()
        job, disposition = coalescer.admit("fp", lambda: retry)
        assert disposition == "new" and job is retry


# -- job queue --------------------------------------------------------


class TestJobQueue:
    def _request(self):
        return parse_job_request({"kind": "design", "app": "qsort"})

    def test_job_lifecycle(self):
        queue = JobQueue(lambda job: {"echo": job.fingerprint}, workers=1)
        job = queue.new_job(self._request(), "fp-1")
        assert job.state == "queued"
        queue.submit(job)
        assert job.wait(10)
        status = job.status()
        assert status["state"] == "done"
        assert status["result"] == {"echo": "fp-1"}
        assert status["finished_at"] >= status["submitted_at"]
        queue.shutdown()

    def test_exceptions_mark_failed(self):
        def explode(job):
            raise ValueError("deliberate")

        queue = JobQueue(explode, workers=1)
        job = queue.new_job(self._request(), "fp-1")
        queue.submit(job)
        assert job.wait(10)
        assert job.state == "failed"
        assert "deliberate" in job.status()["error"]
        queue.shutdown()

    def test_shutdown_drains_queued_jobs(self):
        release = threading.Event()
        done = []

        def execute(job):
            release.wait(10)
            done.append(job.id)
            return {}

        queue = JobQueue(execute, workers=1)
        jobs = [queue.new_job(self._request(), f"fp-{i}") for i in range(3)]
        for job in jobs:
            queue.submit(job)
        release.set()
        queue.shutdown(drain=True)  # must block until all three ran
        assert len(done) == 3
        assert all(job.state == "done" for job in jobs)

    def test_shutdown_without_drain_fails_queued_jobs(self):
        release = threading.Event()

        def execute(job):
            release.wait(10)
            return {}

        queue = JobQueue(execute, workers=1)
        first = queue.new_job(self._request(), "fp-0")
        queue.submit(first)
        # Ensure the worker picked up `first` so the rest stay queued.
        deadline = threading.Event()
        while first.state == "queued" and not deadline.wait(0.01):
            pass
        abandoned = [
            queue.new_job(self._request(), f"fp-{i}") for i in (1, 2)
        ]
        for job in abandoned:
            queue.submit(job)
        release.set()
        queue.shutdown(drain=False)
        assert all(job.state == "failed" for job in abandoned)
        assert first.state == "done"  # in-flight still completes

    def test_submit_after_shutdown_rejected(self):
        queue = JobQueue(lambda job: {}, workers=1)
        queue.shutdown()
        with pytest.raises(RuntimeError, match="shutting down"):
            queue.submit(queue.new_job(self._request(), "fp"))


# -- the acceptance property: coalescing saves real solves ------------


class TestServiceCoalescing:
    def test_concurrent_identical_requests_one_solve(self, tmp_path):
        """Two concurrent identical submissions -> exactly one solve.

        A solo run establishes how many solver invocations one design
        costs; the concurrent pair must cost exactly the same total.
        """
        solo_service = SynthesisService(
            cache_dir=str(tmp_path / "solo"), workers=2
        )
        SOLVE_COUNTER.reset()
        job, disposition = solo_service.submit(
            {"kind": "design", "app": "qsort"}
        )
        assert disposition == "new"
        assert job.wait(120) and job.state == "done"
        solo_solves = SOLVE_COUNTER.total
        assert solo_solves > 0
        solo_service.close()

        service = SynthesisService(
            cache_dir=str(tmp_path / "pair"), workers=2
        )
        SOLVE_COUNTER.reset()
        first, disposition_1 = service.submit(
            {"kind": "design", "app": "qsort"}
        )
        second, disposition_2 = service.submit(
            {"kind": "design", "app": "qsort"}
        )
        assert disposition_1 == "new"
        assert disposition_2 == "coalesced"
        assert second is first  # one job, two submitters
        assert first.wait(120) and first.state == "done"
        assert SOLVE_COUNTER.total == solo_solves
        assert first.coalesced == 1

        # A third submission after completion: served from the
        # registry, still no extra solve.
        third, disposition_3 = service.submit(
            {"kind": "design", "app": "qsort"}
        )
        assert disposition_3 == "finished"
        assert third.result == first.result
        assert SOLVE_COUNTER.total == solo_solves
        service.close()

    def test_warm_cache_answers_without_queueing(self, tmp_path):
        service = SynthesisService(cache_dir=str(tmp_path), workers=1)
        job, _ = service.submit({"kind": "design", "app": "qsort"})
        assert job.wait(120) and job.state == "done"
        service.close()

        # A fresh service on the same cache directory: the daemon
        # restarted, but the whole-result cache answers instantly.
        restarted = SynthesisService(cache_dir=str(tmp_path), workers=1)
        SOLVE_COUNTER.reset()
        warm, disposition = restarted.submit(
            {"kind": "design", "app": "qsort"}
        )
        assert disposition == "cached"
        assert warm.state == "done"
        assert SOLVE_COUNTER.total == 0
        assert warm.result == job.result
        restarted.close()

    def test_jobs_share_the_start_up_stage_cache(self, tmp_path, monkeypatch):
        """Job runners persist through the collector's disk instance:
        no job builds a :class:`ResultCache` (each construction sweeps
        the cache directory for orphaned temp files)."""
        service = SynthesisService(cache_dir=str(tmp_path), workers=1)
        constructed = []
        init = ResultCache.__init__

        def counting_init(cache, *args, **kwargs):
            constructed.append(cache)
            init(cache, *args, **kwargs)

        monkeypatch.setattr(ResultCache, "__init__", counting_init)
        for threshold in (0.1, 0.2):
            job, disposition = service.submit(
                {"kind": "design", "app": "qsort", "threshold": threshold}
            )
            assert disposition == "new"
            assert job.wait(120) and job.state == "done"
        service.close()
        assert constructed == []

    def test_cold_submit_never_simulates_on_the_submitting_thread(
        self, tmp_path, monkeypatch
    ):
        """The warm lookup only reads stored digests: a cold design is
        queued as ``new`` and collected on the worker."""
        from repro.apps import registry
        from repro.apps.descriptor import Application

        monkeypatch.setattr(registry, "_DEFAULT_TRACES", {})
        threads = []
        simulate = Application.simulate_full_crossbar

        def recording(app, *args, **kwargs):
            threads.append(threading.current_thread())
            return simulate(app, *args, **kwargs)

        monkeypatch.setattr(Application, "simulate_full_crossbar", recording)
        service = SynthesisService(cache_dir=str(tmp_path), workers=1)
        job, disposition = service.submit({"kind": "design", "app": "qsort"})
        assert disposition == "new"
        assert job.wait(120) and job.state == "done"
        service.close()
        assert threads and threading.current_thread() not in threads

    def test_cli_and_daemon_share_one_address(self, tmp_path, capsys):
        """A point designed by the CLI is answered ``cached`` by a
        daemon on the same directory, filed under the payload's
        design fingerprint."""
        from repro.cli import main

        assert main(["design", "qsort", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        service = SynthesisService(cache_dir=str(tmp_path), workers=1)
        SOLVE_COUNTER.reset()
        job, disposition = service.submit({"kind": "design", "app": "qsort"})
        service.close()
        assert disposition == "cached"
        assert SOLVE_COUNTER.total == 0
        fingerprint = job.result["design_fingerprint"]
        record = json.loads((tmp_path / f"{fingerprint}.json").read_text())
        assert record == job.result["result"]


# -- HTTP surface -----------------------------------------------------


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    instance = SynthesisServer(
        port=0,
        cache_dir=str(tmp_path_factory.mktemp("server-cache")),
        workers=2,
    )
    instance.start()
    yield instance
    if instance.draining.is_set():
        return  # a test already stopped it
    instance.stop()


@pytest.fixture(scope="module")
def base(server):
    return f"http://127.0.0.1:{server.server_address[1]}"


class TestHTTP:
    def test_health(self, base):
        status, body = http_get(base, "/v1/health")
        assert status == 200
        # A fault-free module-scoped server must report healthy; the
        # degraded shape is covered in tests/resilience.
        assert body["status"] == "ok"
        assert body["degraded"] is False
        assert body["reasons"] == []

    def test_submit_poll_fetch_lifecycle(self, base):
        status, body = http_post(base, {"kind": "design", "app": "qsort"})
        assert status == 202
        assert body["disposition"] in ("new", "coalesced", "finished")
        job_id = body["job"]
        assert body["fingerprint"]

        status, listed = http_get(base, "/v1/jobs")
        assert status == 200
        assert any(job["job"] == job_id for job in listed["jobs"])

        status, done = http_get(base, f"/v1/jobs/{job_id}?wait=120")
        assert status == 200
        assert done["state"] == "done"
        result = done["result"]
        assert result["format"] == "repro-server-design-v1"
        assert result["app"] == "qsort"
        assert result["design_fingerprint"]
        assert result["result"]["format"] == "repro-result-v1"
        # Progress tallies cover the real pipeline stages.
        assert set(done["progress"]) >= {"window", "conflicts", "bind"}

    def test_concurrent_identical_posts_share_one_job(self, base):
        payload = {"kind": "design", "app": "qsort", "threshold": 0.25}
        responses = []

        def submit():
            responses.append(http_post(base, payload))

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(status == 202 for status, _ in responses)
        job_ids = {body["job"] for _, body in responses}
        assert len(job_ids) == 1  # both submissions share one job
        dispositions = sorted(body["disposition"] for _, body in responses)
        assert dispositions[0] in ("coalesced", "finished")
        assert "new" in dispositions
        status, done = http_get(base, f"/v1/jobs/{job_ids.pop()}?wait=120")
        assert status == 200 and done["state"] == "done"

    def test_malformed_request_gets_json_400(self, base):
        status, body = http_post(base, {"kind": "design", "app": "nope"})
        assert status == 400
        assert "unknown application" in body["error"]["message"]
        assert "qsort" in body["error"]["choices"]

        status, body = http_post(base, {"kind": "design"})
        assert status == 400
        assert "app" in body["error"]["message"]

        status, body = http_post(base, ["not", "an", "object"])
        assert status == 400
        assert "JSON object" in body["error"]["message"]

    def test_unparseable_body_gets_json_400(self, base):
        request = urllib.request.Request(
            f"{base}/v1/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert "not valid JSON" in body["error"]["message"]

    def test_unknown_job_and_path_get_404(self, base):
        status, body = http_get(base, "/v1/jobs/job-999999")
        assert status == 404
        assert "no such job" in body["error"]["message"]
        status, body = http_get(base, "/v1/frobnicate")
        assert status == 404

    def test_unsupported_method_gets_405(self, base):
        status, body = http_method(base, "/v1/jobs", "DELETE")
        assert status == 405

    def test_keep_alive_requests_do_not_stall(self, server):
        """Twenty requests on one HTTP/1.1 connection: with Nagle's
        algorithm on, each response body waits ~40 ms for the delayed
        ACK of its headers; with TCP_NODELAY they take milliseconds."""
        import http.client
        import time

        connection = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=30
        )
        try:
            began = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/v1/health")
                response = connection.getresponse()
                assert response.status == 200
                json.loads(response.read())
            elapsed = time.perf_counter() - began
        finally:
            connection.close()
        assert elapsed < 0.3, f"20 keep-alive requests took {elapsed:.3f} s"

    def test_stats_endpoint(self, base):
        status, stats = http_get(base, "/v1/stats")
        assert status == 200
        assert stats["coalescing"]["submitted"] >= 1
        assert stats["coalescing"]["executed"] >= 1
        assert set(stats["queue"]) == {
            "depth", "active", "jobs", "timeouts", "job_timeout"
        }
        assert "engine" not in stats
        assert stats["shedding"]["shed"] == 0
        assert stats["faults"] is None
        assert stats["cache"] is not None
        assert stats["cache"]["entries"] >= 1
        assert stats["solves"]["in_process"] >= 0


class TestSuiteJobs:
    def test_suite_job_returns_scenario_report(self, tmp_path):
        service = SynthesisService(cache_dir=str(tmp_path), workers=1)
        job, disposition = service.submit(
            {"kind": "suite", "suite": "smoke"}
        )
        assert disposition == "new"
        assert job.wait(300) and job.state == "done"
        report = job.result
        assert report["format"] == "repro-scenario-report-v1"
        assert report["scenarios"]
        assert job.progress  # stage tallies streamed during the run
        service.close()


class TestShutdown:
    def test_stop_drains_in_flight_jobs(self, tmp_path):
        server = SynthesisServer(
            port=0, cache_dir=str(tmp_path), workers=1
        )
        server.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        status, body = http_post(base, {"kind": "design", "app": "qsort"})
        assert status == 202
        job = server.service.queue.get(body["job"])
        server.stop(drain=True)  # must block until the job is terminal
        assert job.state == "done"
        assert job.result is not None

        # Once draining, new submissions are refused with 503.
        service = server.service
        with pytest.raises(RuntimeError):
            service.queue.submit(
                service.queue.new_job(
                    parse_job_request({"kind": "design", "app": "qsort"}),
                    "fp",
                )
            )
