"""Registry semantics plus a golden test of the Prometheus exposition.

The exposition test parses the rendered text with a minimal Prometheus
text-format parser written here (no client library in the image): every
sample line must parse, every family must carry a ``# TYPE``, histogram
buckets must be cumulative and consistent with ``_count``/``_sum``.
"""

import re
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
)

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text):
    """Parse exposition text into ``{family: (kind, {sample: value})}``.

    Intentionally strict: unknown line shapes are assertion failures,
    and a sample whose family has no ``# TYPE`` declaration fails too.
    That is the contract a real Prometheus scraper enforces.
    """
    families = {}
    kinds = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram", "untyped")
            kinds[name] = kind
            families.setdefault(name, {})
            continue
        assert not line.startswith("#"), f"unknown comment line: {line!r}"
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
        key = (name, labels)
        assert key not in families[family], f"duplicate sample {key}"
        families[family][key] = value
    return {name: (kinds[name], families[name]) for name in kinds}


class TestCounter:
    def test_inc_value_total(self):
        registry = MetricsRegistry()
        c = registry.counter("t_hits", "hits", ("kind",))
        c.inc(kind="a")
        c.inc(2, kind="b")
        assert c.value(kind="a") == 1
        assert c.value(kind="b") == 2
        assert c.total() == 3

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        c = registry.counter("t_hits")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_label_mismatch_rejected(self):
        registry = MetricsRegistry()
        c = registry.counter("t_hits", "", ("kind",))
        with pytest.raises(ValueError):
            c.inc(other="x")
        with pytest.raises(ValueError):
            c.inc()

    def test_redeclare_same_shape_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("t_hits", "", ("kind",))
        again = registry.counter("t_hits", "", ("kind",))
        assert first is again

    def test_redeclare_different_type_or_labels_rejected(self):
        registry = MetricsRegistry()
        registry.counter("t_hits", "", ("kind",))
        with pytest.raises(ValueError):
            registry.gauge("t_hits", "", ("kind",))
        with pytest.raises(ValueError):
            registry.counter("t_hits", "", ("other",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("ok", "", ("bad-label",))


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        g = registry.gauge("t_depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value() == 4

    def test_callback_child_sampled_at_read(self):
        registry = MetricsRegistry()
        g = registry.gauge("t_depth")
        backing = [7]
        g.set_function(lambda: backing[0])
        assert g.value() == 7
        backing[0] = 9
        assert g.value() == 9

    def test_callback_unregistered_with_none(self):
        registry = MetricsRegistry()
        g = registry.gauge("t_depth")
        g.set_function(lambda: 7)
        g.set_function(None)
        assert g.value() == 0
        assert "t_depth 0" in registry.render_prometheus()

    def test_failing_callback_skipped_in_render(self):
        registry = MetricsRegistry()
        g = registry.gauge("t_depth", "", ("q",))

        def boom():
            raise RuntimeError("sampling failed")

        g.set_function(boom, q="a")
        g.set(3, q="b")
        text = registry.render_prometheus()
        assert 't_depth{q="b"} 3' in text
        assert 'q="a"' not in text

    def test_inc_on_callback_child_rejected(self):
        registry = MetricsRegistry()
        g = registry.gauge("t_depth")
        g.set_function(lambda: 1)
        with pytest.raises(ValueError):
            g.inc()


class TestHistogram:
    def test_observe_and_child_stats(self):
        registry = MetricsRegistry()
        h = registry.histogram("t_seconds", "", ("op",))
        for value in (0.0004, 0.004, 0.04, 99.0):
            h.observe(value, op="x")
        count, total = h.child_stats(op="x")
        assert count == 4
        assert total == pytest.approx(0.0004 + 0.004 + 0.04 + 99.0)

    def test_bucket_counts_cumulative_and_consistent(self):
        registry = MetricsRegistry()
        h = registry.histogram("t_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            h.observe(value)
        families = parse_prometheus(registry.render_prometheus())
        kind, samples = families["t_seconds"]
        assert kind == "histogram"
        assert samples[("t_seconds_bucket", (("le", "0.1"),))] == 1
        assert samples[("t_seconds_bucket", (("le", "1"),))] == 2
        assert samples[("t_seconds_bucket", (("le", "+Inf"),))] == 3
        assert samples[("t_seconds_count", ())] == 3
        assert samples[("t_seconds_sum", ())] == pytest.approx(5.55)

    def test_unsorted_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("t_seconds", buckets=(1.0, 0.1))

    def test_default_buckets_are_latency_shaped(self):
        assert DEFAULT_BUCKETS[0] <= 0.001
        assert DEFAULT_BUCKETS[-1] >= 10.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestSnapshot:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("t_hits", "", ("kind",)).inc(3, kind="a")
        registry.gauge("t_depth").set(2)
        registry.histogram("t_seconds").observe(0.5)
        snap = registry.snapshot()
        assert snap["t_hits"]["samples"][("a",)] == 3
        assert snap["t_depth"]["samples"][()] == 2
        assert snap["t_seconds"]["samples"][()] == {"count": 1, "sum": 0.5}

    def test_reset_zeroes_children(self):
        registry = MetricsRegistry()
        c = registry.counter("t_hits")
        c.inc(5)
        registry.reset()
        assert c.total() == 0

    def test_thread_safety_under_contention(self):
        registry = MetricsRegistry()
        c = registry.counter("t_hits")
        h = registry.histogram("t_seconds")

        def hammer():
            for _ in range(500):
                c.inc()
                h.observe(0.01)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.total() == 8 * 500
        count, total = h.child_stats()
        assert count == 8 * 500
        assert total == pytest.approx(8 * 500 * 0.01)


class TestExpositionGolden:
    def test_golden_document(self):
        """Byte-exact exposition for a small fixed registry."""
        registry = MetricsRegistry()
        requests = registry.counter(
            "t_requests_total", "Requests by verb.", ("verb",)
        )
        requests.inc(3, verb="get")
        requests.inc(verb='po"st\\')
        registry.gauge("t_depth", "Queue depth.").set(2)
        hist = registry.histogram(
            "t_latency_seconds", "Latency.", buckets=(0.5, 2.5)
        )
        hist.observe(0.25)
        hist.observe(2.0)
        expected = (
            '# HELP t_depth Queue depth.\n'
            '# TYPE t_depth gauge\n'
            't_depth 2\n'
            '# HELP t_latency_seconds Latency.\n'
            '# TYPE t_latency_seconds histogram\n'
            't_latency_seconds_bucket{le="0.5"} 1\n'
            't_latency_seconds_bucket{le="2.5"} 2\n'
            't_latency_seconds_bucket{le="+Inf"} 2\n'
            't_latency_seconds_sum 2.25\n'
            't_latency_seconds_count 2\n'
            '# HELP t_requests_total Requests by verb.\n'
            '# TYPE t_requests_total counter\n'
            't_requests_total{verb="get"} 3\n'
            't_requests_total{verb="po\\"st\\\\"} 1\n'
        )
        assert registry.render_prometheus() == expected

    def test_global_registry_renders_parseable_exposition(self):
        """Everything the instrumented platform registered so far must
        survive the strict parser -- this is the scrape contract."""
        from repro.obs import metrics

        # Touch the instrumented layers so their families exist.
        import repro.exec.cache  # noqa: F401
        import repro.pipeline.runner  # noqa: F401
        import repro.resilience.faults  # noqa: F401
        import repro.server.app  # noqa: F401

        families = parse_prometheus(metrics.render_prometheus())
        for expected in (
            "repro_solves_total",
            "repro_stage_events_total",
            "repro_stage_seconds",
            "repro_cache_events_total",
            "repro_faults_fired_total",
            "repro_requests_total",
            "repro_http_requests_total",
            "repro_http_request_seconds",
            "repro_queue_depth",
            "repro_jobs_active",
        ):
            assert expected in families, f"{expected} not registered"
