"""Warm-start re-solves through the pipeline's hint slot.

Editing a suite's traffic (correctly) misses the content-addressed
binding artifact, but the warm-hint slot -- keyed by problem shape and
binding configuration only -- still holds the previous solve's binding.
The re-solve seeds from it, explores fewer branch-and-bound nodes than
a cold solve of the same edited traffic, and still produces
byte-identical artifacts (hints are advisory; canonicalization makes
outcomes hint-independent).
"""

import json

import pytest

from repro.core import SynthesisConfig
from repro.obs import metrics as _metrics
from repro.pipeline import PipelineRunner
from repro.pipeline.artifacts import warm_hint_key
from repro.traffic import TrafficTrace

from tests.traffic.conftest import make_record

WINDOW = 100


def _trace(shift):
    """Six targets, two activity phases; ``shift`` perturbs durations so
    edited variants change traffic content without changing shape."""
    activity = [
        [(0, 60 + shift), (200, 60)],
        [(100, 60), (300, 60 + shift)],
        [(0, 30), (210, 30 + shift)],
        [(110, 30 + shift), (310, 30)],
        [(40, 20), (260, 20 + shift)],
        [(140, 20 + shift), (360, 20)],
    ]
    records = []
    for target, spans in enumerate(activity):
        for start, duration in spans:
            records.append(
                make_record(
                    initiator=0, target=target, start=start, duration=duration
                )
            )
    horizon = max([400] + [record.complete for record in records])
    return TrafficTrace(records, 1, len(activity), total_cycles=horizon)


def _nodes_total():
    counter = _metrics.REGISTRY.get("repro_solver_nodes_total")
    return counter.value() if counter is not None else 0.0


def _bind(runner, trace, config):
    collected = runner.collect(trace)
    windowed = runner.window(collected, config, WINDOW, mirrored=False)
    conflicts = runner.conflicts(windowed, config)
    return runner.bind(windowed, conflicts, config), windowed


@pytest.fixture
def config():
    return SynthesisConfig(backend="milp")


class TestWarmHintSlot:
    def test_bind_populates_the_hint_slot(self, config):
        runner = PipelineRunner()
        artifact, windowed = _bind(runner, _trace(0), config)
        key = warm_hint_key("bind", windowed.problem, config)
        assert tuple(runner.store.get_warm(key)) == artifact.binding.binding

    def test_hint_slot_disabled_without_memoization(self, config):
        runner = PipelineRunner(memoize_bindings=False)
        _, windowed = _bind(runner, _trace(0), config)
        key = warm_hint_key("bind", windowed.problem, config)
        assert runner.store.get_warm(key) is None

    def test_hint_key_ignores_traffic_content(self, config):
        a = PipelineRunner()
        b = PipelineRunner()
        _, windowed_a = _bind(a, _trace(0), config)
        _, windowed_b = _bind(b, _trace(5), config)
        assert windowed_a.fingerprint != windowed_b.fingerprint
        assert warm_hint_key(
            "bind", windowed_a.problem, config
        ) == warm_hint_key("bind", windowed_b.problem, config)


class TestEditedSuiteResolve:
    def test_warm_resolve_explores_fewer_nodes(self, config):
        # Cold baseline: the edited traffic solved with no prior state.
        cold_runner = PipelineRunner()
        begin = _nodes_total()
        cold_artifact, _ = _bind(cold_runner, _trace(5), config)
        cold_nodes = _nodes_total() - begin
        assert cold_nodes > 0

        # Warm: solve the original, then the edit on the same runner.
        warm_runner = PipelineRunner()
        _bind(warm_runner, _trace(0), config)
        begin = _nodes_total()
        warm_artifact, _ = _bind(warm_runner, _trace(5), config)
        warm_nodes = _nodes_total() - begin

        # The edit missed the artifact cache (it re-solved) ...
        assert warm_runner.counters.computed.get("bind") == 2
        # ... with strictly fewer branch-and-bound nodes than cold ...
        assert warm_nodes < cold_nodes
        # ... and byte-identical artifacts.
        warm_bytes = json.dumps(
            warm_artifact.to_payload(), sort_keys=True
        ).encode()
        cold_bytes = json.dumps(
            cold_artifact.to_payload(), sort_keys=True
        ).encode()
        assert warm_bytes == cold_bytes

    def test_disk_hits_refresh_the_hint_slot(self, config, tmp_path):
        from repro.exec import ResultCache
        from repro.pipeline.store import ArtifactStore

        cache_dir = tmp_path / "cache"
        cold = PipelineRunner(store=ArtifactStore(ResultCache(cache_dir)))
        artifact, windowed = _bind(cold, _trace(0), config)

        # A fresh process over the same cache dir: the binding is served
        # from disk, and the hint slot is primed for future edits.
        fresh = PipelineRunner(store=ArtifactStore(ResultCache(cache_dir)))
        served, _ = _bind(fresh, _trace(0), config)
        assert fresh.counters.disk_hits.get("bind") == 1
        key = warm_hint_key("bind", windowed.problem, config)
        assert tuple(fresh.store.get_warm(key)) == artifact.binding.binding
        assert served.to_payload() == artifact.to_payload()
