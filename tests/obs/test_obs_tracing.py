"""Span tracer semantics and span trees.

The acceptance property of the observability layer lives here: a traced
sweep yields ONE span tree -- every engine and pipeline span reaches
the job's root through parent links -- and arming tracing never
perturbs the byte-identical chaos guarantees the resilience suite
established.
"""

import json

import pytest

from repro.apps.synthetic import synthetic_trace
from repro.core import SynthesisConfig
from repro.exec import ExecutionEngine, SynthesisTask, result_to_dict
from repro.obs import tracing
from repro.resilience import FaultPlan, FaultRule, install_plan

CONFIG = SynthesisConfig(max_targets_per_bus=None)
WINDOWS = [150, 2_400]


@pytest.fixture(scope="module")
def small_trace():
    return synthetic_trace(
        burst_cycles=300, total_cycles=12_000, num_initiators=5,
        num_targets=5, seed=7,
    )


@pytest.fixture(scope="module")
def tasks():
    return [SynthesisTask(config=CONFIG, window_size=w) for w in WINDOWS]


def sweep_bytes(results):
    return json.dumps(
        [result_to_dict(r) for r in results], sort_keys=True
    ).encode()


def assert_single_tree(spans):
    """Every span reaches exactly one root via parent links."""
    by_id = {s.span_id: s for s in spans}
    roots = [s for s in spans if s.parent_id is None]
    assert len(roots) == 1
    root = roots[0]
    for span in spans:
        current = span
        hops = 0
        while current.parent_id is not None:
            assert current.parent_id in by_id, (
                f"span {current.name} has a dangling parent"
            )
            current = by_id[current.parent_id]
            hops += 1
            assert hops < 100
        assert current is root
        assert span.trace_id == root.trace_id
    return root


class TestDisabled:
    def test_span_is_shared_null_object(self):
        first = tracing.span("anything", attr=1)
        second = tracing.span("other")
        assert first is second  # zero allocation on the disabled path
        with first as active:
            assert active.trace_id == ""
            active.set_attr(extra=2)  # no-op, must not raise
        assert tracing.collect_spans() == []
        assert not tracing.tracing_enabled()

    def test_current_span_is_none(self):
        assert tracing.current_span() is None
        with tracing.span("x"):
            assert tracing.current_span() is None


class TestArmed:
    def test_parent_child_links_and_attrs(self):
        tracing.arm_tracing()
        with tracing.root_span("outer", job="j1") as outer:
            with tracing.span("inner") as inner:
                inner.set_attr(detail="yes")
                assert tracing.current_span() is inner
        spans = {s.name: s for s in tracing.collect_spans()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].trace_id == spans["outer"].trace_id
        assert spans["outer"].parent_id is None
        assert spans["outer"].attrs["job"] == "j1"
        assert spans["inner"].attrs["detail"] == "yes"
        assert spans["inner"].wall_s >= 0
        assert outer.trace_id == spans["outer"].trace_id

    def test_exception_recorded_and_propagated(self):
        tracing.arm_tracing()
        with pytest.raises(RuntimeError):
            with tracing.span("failing"):
                raise RuntimeError("boom")
        (span,) = tracing.collect_spans()
        assert span.attrs["error"] == "RuntimeError"

    def test_collect_filters_by_trace_id(self):
        tracing.arm_tracing()
        with tracing.root_span("first") as a:
            pass
        with tracing.root_span("second"):
            pass
        only = tracing.collect_spans(trace_id=a.trace_id)
        assert [s.name for s in only] == ["first"]

    def test_clear_spans(self):
        tracing.arm_tracing()
        with tracing.span("x"):
            pass
        tracing.clear_spans()
        assert tracing.collect_spans() == []

    def test_disarm_stops_recording(self):
        tracing.arm_tracing()
        with tracing.span("kept"):
            pass
        tracing.disarm_tracing()
        assert not tracing.tracing_enabled()
        assert tracing.span("dropped") is tracing.span("other")
        assert tracing.collect_spans() == []


class TestSweepTree:
    def test_sweep_produces_one_tree_under_root(self, small_trace, tasks):
        tracing.arm_tracing()
        engine = ExecutionEngine()
        with tracing.root_span("job.test"):
            engine.run_sweep(small_trace, tasks)
        spans = tracing.collect_spans()
        root = assert_single_tree(spans)
        assert root.name == "job.test"
        # The engine and the pipeline stages under it are in the tree.
        names = {s.name for s in spans}
        assert "engine.sweep" in names
        assert any(name.startswith("pipeline.") for name in names)


class TestChaosByteIdenticalWithTracing:
    def test_faulty_sweep_bytes_unchanged_by_tracing(
        self, small_trace, tasks, tmp_path
    ):
        """The determinism-safety contract: arming tracing on top of a
        fault-injected run changes NOTHING about the results."""
        from repro.resilience import clear_plan

        clear_plan()
        baseline = sweep_bytes(ExecutionEngine().run_sweep(small_trace, tasks))

        def chaos_sweep(cache_dir):
            # Every cache write fails on its first attempt; the retry
            # lands, so the sweep must still store and return the same.
            plan = install_plan(
                FaultPlan(
                    seed=1,
                    rules={
                        "io.transient": FaultRule(rate=1.0, match=("*:a0",))
                    },
                )
            )
            engine = ExecutionEngine(cache=cache_dir)
            result = sweep_bytes(engine.run_sweep(small_trace, tasks))
            # one whole result and two bind reuse records (one per
            # crossbar side) written per point
            assert plan.fired()["io.transient"] == 3 * len(tasks)
            assert engine.cache.stats.stores == len(tasks)
            return result

        untraced = chaos_sweep(tmp_path / "untraced")
        clear_plan()
        tracing.arm_tracing()
        with tracing.root_span("job.chaos"):
            traced = chaos_sweep(tmp_path / "traced")
        assert untraced == baseline
        assert traced == baseline
        assert tracing.collect_spans(), "tracing was armed and recording"
