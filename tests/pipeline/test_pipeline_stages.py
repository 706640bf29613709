"""Stage artifact, fingerprint and store semantics."""

import pytest

from repro.core import SynthesisConfig
from repro.exec import ResultCache
from repro.obs.metrics import REGISTRY
from repro.pipeline import (
    ArtifactStore,
    BindingArtifact,
    PipelineRunner,
    stage_fingerprint,
)
from repro.apps import build_application
from repro.pipeline.store import stage_tables
from repro.apps.synthetic import synthetic_trace
from repro.exec import trace_fingerprint

CONFIG = SynthesisConfig(max_targets_per_bus=None)


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace(
        burst_cycles=300, total_cycles=10_000, num_initiators=4,
        num_targets=4, seed=5,
    )


@pytest.fixture(scope="module")
def qsort_trace():
    return build_application("qsort").simulate_full_crossbar().trace


class TestFingerprints:
    @pytest.mark.parametrize(
        "config",
        [
            SynthesisConfig(),
            SynthesisConfig(overlap_threshold=0.2),
            SynthesisConfig(variable_windows=True),
            SynthesisConfig(use_criticality=False, max_targets_per_bus=None),
        ],
    )
    def test_design_fingerprint_matches_an_executed_flow(self, qsort_trace, config):
        derived = PipelineRunner.design_fingerprint(
            trace_fingerprint(qsort_trace), config, 1_000
        )
        executed = PipelineRunner().design(qsort_trace, config, 1_000)
        assert derived == executed.fingerprint

    def test_deterministic(self):
        a = stage_fingerprint("window", "abc", {"window_size": 100})
        b = stage_fingerprint("window", "abc", {"window_size": 100})
        assert a == b

    def test_sensitive_to_stage_upstream_and_spec(self):
        base = stage_fingerprint("window", "abc", {"window_size": 100})
        assert stage_fingerprint("conflicts", "abc", {"window_size": 100}) != base
        assert stage_fingerprint("window", "abd", {"window_size": 100}) != base
        assert stage_fingerprint("window", "abc", {"window_size": 200}) != base

    def test_config_slices_ignore_unrelated_fields(self, trace):
        """A threshold change must not invalidate windowing artifacts."""
        runner = PipelineRunner()
        cut = REGISTRY.snapshot()
        collected = runner.collect(trace)
        low = runner.window(collected, SynthesisConfig(overlap_threshold=0.1),
                            500, mirrored=False)
        high = runner.window(collected, SynthesisConfig(overlap_threshold=0.4),
                             500, mirrored=False)
        assert low.fingerprint == high.fingerprint
        assert stage_tables(cut)["memo_hits"].get("window") == 1

    def test_equal_traces_share_collection_artifact(self):
        kwargs = dict(
            burst_cycles=300, total_cycles=10_000, num_initiators=4,
            num_targets=4, seed=5,
        )
        runner = PipelineRunner()
        first = runner.collect(synthetic_trace(**kwargs))
        second = runner.collect(synthetic_trace(**kwargs))
        assert first.fingerprint == second.fingerprint


class TestRunnerMemoization:
    def test_repeat_design_is_fully_memoized(self, trace):
        runner = PipelineRunner()
        cut = REGISTRY.snapshot()
        first = runner.design(trace, CONFIG, 500)
        computed = stage_tables(cut)["computed"]
        second = runner.design(trace, CONFIG, 500)
        assert second.design == first.design
        stages = stage_tables(cut)
        assert stages["computed"] == computed  # nothing re-ran
        assert stages["memo_hits"].get("bind") == 2

    def test_threshold_change_reuses_windows_not_conflicts(self, trace):
        runner = PipelineRunner()
        cut = REGISTRY.snapshot()
        runner.design(trace, SynthesisConfig(max_targets_per_bus=None), 500)
        runner.design(
            trace,
            SynthesisConfig(max_targets_per_bus=None, overlap_threshold=0.1),
            500,
        )
        stages = stage_tables(cut)
        assert stages["computed"].get("window") == 2  # it + ti, once
        assert stages["memo_hits"].get("window") == 2
        assert stages["computed"].get("conflicts") == 4  # re-ran

    def test_shared_runner_never_memoizes_bindings(self, trace):
        runner = PipelineRunner()
        cut = REGISTRY.snapshot()
        design = runner.design(trace, CONFIG, 500)
        for side in (design.it, design.ti):
            assert side.binding.fingerprint not in runner.store
        # A repeat is answered by the sides' bind reuse records (same
        # conflict pairs), never by a stage lookup, and solves nothing.
        again = runner.design(trace, CONFIG, 500)
        assert again.design == design.design
        assert stage_tables(cut)["computed"].get("bind", 0) == 2
        for side in (again.it, again.ti):
            assert side.binding.fingerprint not in runner.store

    def test_shared_runner_never_retains_traces(self, trace):
        """A runner's store must not pin callers' traces in memory;
        downstream sharing keys off the content fingerprint instead."""
        from repro.pipeline import CollectedTraffic

        runner = PipelineRunner()
        runner.design(trace, CONFIG, 500)
        held = [
            artifact
            for artifact in runner.store._memory.values()
            if isinstance(artifact, CollectedTraffic)
        ]
        assert held == []
        # ... while windowing artifacts still share across designs:
        cut = REGISTRY.snapshot()
        runner.design(trace, CONFIG, 500)
        assert stage_tables(cut)["memo_hits"].get("window", 0) == 2


class TestArtifactStore:
    def test_lru_eviction(self):
        store = ArtifactStore(max_memory_entries=2)
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1  # refreshes 'a'
        store.put("c", 3)
        assert store.get("b") is None  # 'b' was the least recently used
        assert store.get("a") == 1
        assert store.get("c") == 3

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ArtifactStore(max_memory_entries=0)

    def test_reserve_grows_but_never_shrinks(self):
        store = ArtifactStore(max_memory_entries=2)
        store.reserve(10)
        assert store.max_memory_entries == 10
        store.reserve(4)
        assert store.max_memory_entries == 10

    def test_payload_round_trip_via_disk(self, tmp_path):
        store = ArtifactStore(disk=ResultCache(tmp_path / "cache"))
        store.put_payload("f" * 8, {"x": 1})
        assert store.get_payload("f" * 8) == {"x": 1}
        assert ArtifactStore(
            disk=ResultCache(tmp_path / "cache")
        ).get_payload("f" * 8) == {"x": 1}

    def test_payload_without_disk_is_noop(self):
        store = ArtifactStore()
        store.put_payload("abc", {"x": 1})
        assert store.get_payload("abc") is None


class TestBindingPersistence:
    def test_binding_artifact_round_trips(self, trace):
        design = PipelineRunner().design(trace, CONFIG, 500)
        for side in (design.it, design.ti):
            artifact = side.binding
            rebuilt = BindingArtifact.from_payload(
                artifact.to_payload(), artifact.fingerprint
            )
            assert rebuilt == artifact

    def test_disk_layer_skips_solves_across_runners(self, trace, tmp_path):
        from repro.core import SOLVE_COUNTER

        cache = tmp_path / "cache"
        cold = PipelineRunner(store=ArtifactStore(disk=ResultCache(cache)))
        first = cold.design(trace, CONFIG, 500)

        warm = PipelineRunner(store=ArtifactStore(disk=ResultCache(cache)))
        SOLVE_COUNTER.reset()
        cut = REGISTRY.snapshot()
        second = warm.design(trace, CONFIG, 500)
        assert SOLVE_COUNTER.total == 0
        assert stage_tables(cut)["disk_hits"].get("bind") == 2
        assert second.design == first.design
        assert second.it.binding == first.it.binding
        assert second.ti.binding == first.ti.binding

    def test_corrupt_stage_entry_recomputed(self, trace, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = PipelineRunner(store=ArtifactStore(disk=ResultCache(cache_dir)))
        first = cold.design(trace, CONFIG, 500)
        for entry in cache_dir.glob("*.json"):
            entry.write_text('{"format": "repro-stage-artifact-v1", '
                             '"payload": {"search": {}}}', encoding="utf-8")
        warm = PipelineRunner(store=ArtifactStore(disk=ResultCache(cache_dir)))
        cut = REGISTRY.snapshot()
        second = warm.design(trace, CONFIG, 500)
        assert stage_tables(cut)["computed"].get("bind") == 2  # recomputed cleanly
        assert second.design == first.design
