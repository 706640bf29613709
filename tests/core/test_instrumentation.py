"""``SOLVE_COUNTER`` is a view of the ``repro_solves_total`` registry family."""

import sys
import threading

import pytest

import repro.core.binding
import repro.core.search
from repro.apps import build_application
from repro.cli import main
from repro.core import SOLVE_COUNTER, SynthesisConfig
from repro.core.assignment import solve_assignment
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
    PipelineRunner().design(trace, SynthesisConfig(), 1_000)
    snapshot = SOLVE_COUNTER.snapshot()

    expected = {"feasibility": 0, "binding": 0, "total": 0}
    for (kind,), value in _solves_growth(before).items():
        expected[kind] += value
        expected["total"] += value
    assert snapshot == expected
    assert snapshot["binding"] == 2  # one Eq. 11 solve per crossbar side
    assert SOLVE_COUNTER.total == snapshot["total"] > 0


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
    }
    assert metrics.REGISTRY.get("repro_solves_total").total() == registry_total


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown solve kind"):
        record_solve("portfolio")


def test_dfs_node_counter_grows_by_the_returned_nodes(monkeypatch, capsys):
    """``repro_dfs_nodes_total`` adds each solve's ``nodes`` once, by mode."""
    returned = {"feasibility": 0, "optimize": 0}

    def recording(*args, **kwargs):
        result = solve_assignment(*args, **kwargs)
        returned["optimize" if kwargs["optimize"] else "feasibility"] += result.nodes
        return result

    monkeypatch.setattr(repro.core.search, "solve_assignment", recording)
    monkeypatch.setattr(repro.core.binding, "solve_assignment", recording)
    family = metrics.REGISTRY.get("repro_dfs_nodes_total")
    before = family.collect()
    assert main(["design", "fft", "--profile"]) == 0
    grown = {
        mode: int(value - before.get((mode,), 0))
        for (mode,), value in family.collect().items()
    }
    assert grown == returned
    assert returned["optimize"] > returned["feasibility"] > 0
    profile = capsys.readouterr().out.split("DFS nodes (this run)")[1]
    assert f"optimize     {returned['optimize']}" in profile
