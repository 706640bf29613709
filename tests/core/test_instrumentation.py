"""``SOLVE_COUNTER`` is a view of the ``repro_solves_total`` registry family."""

import sys
import threading

import pytest

from repro.apps import build_application
from repro.core import SOLVE_COUNTER, SynthesisConfig
from repro.core.instrumentation import record_solve
from repro.obs import metrics
from repro.pipeline import PipelineRunner


def _solves_growth(before):
    """Growth of ``repro_solves_total`` since the ``before`` cut."""
    after = metrics.REGISTRY.get("repro_solves_total").collect()
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if value != before.get(key, 0)
    }


def test_snapshot_is_the_registry_growth_since_reset():
    trace = build_application("qsort").simulate_full_crossbar().trace
    SOLVE_COUNTER.reset()
    before = metrics.REGISTRY.get("repro_solves_total").collect()
    PipelineRunner().design(trace, SynthesisConfig(backend="milp"), 1_000)
    snapshot = SOLVE_COUNTER.snapshot()

    expected = {"feasibility": 0, "binding": 0, "total": 0, "by_backend": {}}
    for (kind, backend), value in _solves_growth(before).items():
        expected[kind] += value
        expected["total"] += value
        by_backend = expected["by_backend"]
        by_backend[backend] = by_backend.get(backend, 0) + value
    assert snapshot == expected
    assert snapshot["by_backend"]["highs"] == snapshot["total"] > 0
    assert SOLVE_COUNTER.total == snapshot["total"]


def test_concurrent_records_are_all_counted():
    SOLVE_COUNTER.reset()

    def record_many():
        for _ in range(500):
            record_solve("feasibility")

    threads = [threading.Thread(target=record_many) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often: expose lost updates
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert SOLVE_COUNTER.total == SOLVE_COUNTER.feasibility == 2_000
    assert SOLVE_COUNTER.binding == 0


def test_reset_restarts_the_view_not_the_registry():
    record_solve("binding")
    registry_total = metrics.REGISTRY.get("repro_solves_total").total()
    SOLVE_COUNTER.reset()
    assert SOLVE_COUNTER.snapshot() == {
        "feasibility": 0,
        "binding": 0,
        "total": 0,
        "by_backend": {},
    }
    assert metrics.REGISTRY.get("repro_solves_total").total() == registry_total


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown solve kind"):
        record_solve("portfolio")
