"""Server observability: /metrics, per-job traces, JSON logging.

Complements ``tests/server/test_server.py`` (functional daemon
coverage) with the observability surface: the Prometheus endpoint must
render a scrape-valid document whose families cover solver, cache,
queue and HTTP metrics; a finished job must expose a complete
span tree through ``GET /v1/jobs/<id>/trace``; ``--log-json`` mode
must emit one parseable object per admission/transition.
"""

import io
import json
import re
import urllib.error
import urllib.request

import pytest

from repro.obs import tracing
from repro.obs.jsonlog import JsonLogger
from repro.server import SynthesisServer, SynthesisService

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text):
    """Strict minimal exposition parser (see tests/obs/test_obs_metrics.py
    for the full registry-side variant): every sample line must parse
    and belong to a ``# TYPE``-declared family."""
    kinds = {}
    families = {}
    for line in text.splitlines():
        if not line or line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            kinds[name] = kind
            families.setdefault(name, {})
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        name = match.group("name")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in kinds:
                family = name[: -len(suffix)]
        assert family in kinds, f"sample {name!r} has no # TYPE"
        labels = tuple(
            sorted(_LABEL_RE.findall(match.group("labels") or ""))
        )
        raw = match.group("value")
        value = float("inf") if raw == "+Inf" else float(raw)
        families[family][(name, labels)] = value
    return {name: (kinds[name], families[name]) for name in kinds}


@pytest.fixture(autouse=True)
def _clean_tracing():
    # Only disarm what a test leaked: the module-scoped HTTP server
    # below arms tracing for its whole lifetime and owns its disarm
    # (through service.close()), so a blanket disarm here would pull
    # the collector out from under it between tests.
    was_enabled = tracing.tracing_enabled()
    yield
    if tracing.tracing_enabled() and not was_enabled:
        tracing.clear_spans()
        tracing.disarm_tracing()


def submit_and_wait(service, payload):
    job, disposition = service.submit(payload)
    assert job.wait(60)
    return job, disposition


class TestServiceTraces:
    def test_job_trace_covers_every_pipeline_stage(self, tmp_path):
        service = SynthesisService(cache_dir=str(tmp_path / "cache"))
        try:
            job, _ = submit_and_wait(
                service, {"kind": "design", "app": "qsort"}
            )
            assert job.state == "done"
            assert job.trace_id
            trace = service.job_trace(job.id)
            assert trace["trace_id"] == job.trace_id
            names = {span["name"] for span in trace["spans"]}
            assert f"job.design" in names
            for stage in ("window", "conflicts", "bind", "collect"):
                assert f"pipeline.{stage}" in names
            # One tree: every span reaches the job root.
            by_id = {s["span_id"]: s for s in trace["spans"]}
            roots = [
                s for s in trace["spans"] if s.get("parent_id") is None
            ]
            assert [s["name"] for s in roots] == ["job.design"]
            for span in trace["spans"]:
                current = span
                while current.get("parent_id") is not None:
                    current = by_id[current["parent_id"]]
                assert current["name"] == "job.design"
        finally:
            service.close()

    def test_trace_id_surfaces_in_job_status(self, tmp_path):
        service = SynthesisService(cache_dir=str(tmp_path / "cache"))
        try:
            job, _ = submit_and_wait(
                service, {"kind": "design", "app": "qsort"}
            )
            assert job.status()["trace_id"] == job.trace_id
        finally:
            service.close()

    def test_unknown_job_trace_is_none(self):
        service = SynthesisService()
        try:
            assert service.job_trace("job-999") is None
        finally:
            service.close()

    def test_trace_disabled_service_answers_empty(self):
        service = SynthesisService(trace=False)
        try:
            job, _ = submit_and_wait(
                service, {"kind": "design", "app": "qsort"}
            )
            trace = service.job_trace(job.id)
            assert trace["trace_id"] is None
            assert trace["spans"] == []
        finally:
            service.close()

    def test_stats_solves_are_snapshot_consistent(self):
        service = SynthesisService()
        try:
            submit_and_wait(service, {"kind": "design", "app": "qsort"})
            solves = service.stats()["solves"]
            assert solves["feasibility"] >= 0
            assert solves["binding"] >= 1
            assert solves["in_process"] >= 1
        finally:
            service.close()


class TestJsonLogging:
    def test_admission_and_transition_events(self):
        stream = io.StringIO()
        service = SynthesisService(log=JsonLogger(stream=stream))
        try:
            job, _ = submit_and_wait(
                service, {"kind": "design", "app": "qsort"}
            )
            events = [
                json.loads(line)
                for line in stream.getvalue().splitlines()
            ]
            kinds = [event["event"] for event in events]
            assert "request.admitted" in kinds
            assert "job.started" in kinds
            assert "job.finished" in kinds
            finished = next(
                e for e in events if e["event"] == "job.finished"
            )
            assert finished["job"] == job.id
            assert finished["state"] == "done"
            assert finished["trace_id"] == job.trace_id
            assert finished["duration_s"] > 0
        finally:
            service.close()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    instance = SynthesisServer(
        port=0,
        cache_dir=str(tmp_path_factory.mktemp("obs-cache")),
        workers=1,
    )
    instance.start()
    yield instance
    instance.stop()


@pytest.fixture()
def base(server):
    return server.address


def http_get_text(base, path):
    with urllib.request.urlopen(f"{base}{path}") as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


class TestHTTPObservability:
    def _run_job(self, base):
        body = json.dumps({"kind": "design", "app": "qsort"}).encode()
        request = urllib.request.Request(
            f"{base}/v1/jobs",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            job = json.loads(response.read())["job"]
        with urllib.request.urlopen(
            f"{base}/v1/jobs/{job}?wait=60"
        ) as response:
            status = json.loads(response.read())
        assert status["state"] == "done"
        return job

    def test_metrics_endpoint_is_scrape_valid(self, base):
        self._run_job(base)
        status, content_type, text = http_get_text(base, "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        families = parse_prometheus(text)
        for family in (
            "repro_solves_total",
            "repro_cache_events_total",
            "repro_queue_depth",
            "repro_jobs_active",
            "repro_http_requests_total",
            "repro_http_request_seconds",
            "repro_requests_total",
            "repro_stage_seconds",
        ):
            assert family in families, f"{family} missing from /metrics"
        kind, samples = families["repro_http_requests_total"]
        assert kind == "counter"
        assert any(
            ("endpoint", "/v1/jobs") in labels
            for (_, labels) in samples
        )

    def test_job_trace_endpoint(self, base):
        job = self._run_job(base)
        status, _, text = http_get_text(base, f"/v1/jobs/{job}/trace")
        assert status == 200
        trace = json.loads(text)
        assert trace["job"] == job
        names = {span["name"] for span in trace["spans"]}
        assert "job.design" in names
        assert "pipeline.bind" in names

    def test_trace_endpoint_404_for_unknown_job(self, base):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/v1/jobs/job-999/trace")
        assert excinfo.value.code == 404

    def test_http_metrics_label_low_cardinality(self, base):
        job = self._run_job(base)
        http_get_text(base, f"/v1/jobs/{job}")
        _, _, text = http_get_text(base, "/metrics")
        # Job ids never become label values; only templates do.
        assert f'endpoint="/v1/jobs/{job}"' not in text
        assert 'endpoint="/v1/jobs/<id>"' in text
