"""The latency-replay stage and the windowed-tensor npz sidecars."""

import numpy as np
import pytest

from repro.core import SynthesisConfig
from repro.exec import ResultCache
from repro.pipeline import (
    ArtifactStore,
    PipelineRunner,
    ReplayArtifact,
)
from repro.platform import TraceDrivenInitiator
from repro.apps.synthetic import synthetic_trace

CONFIG = SynthesisConfig(max_targets_per_bus=None)


@pytest.fixture(scope="module")
def trace():
    return synthetic_trace(
        burst_cycles=300, total_cycles=10_000, num_initiators=4,
        num_targets=4, seed=9,
    )


@pytest.fixture(scope="module")
def design(trace):
    return PipelineRunner().design(trace, CONFIG, 500).design


class TestReplayStage:
    def test_replay_produces_latency_statistics(self, trace, design):
        runner = PipelineRunner()
        artifact = runner.replay(TraceDrivenInitiator(trace), design)
        assert artifact.num_transactions == len(trace)
        assert artifact.stats.count == len(trace)
        assert artifact.stats.mean > 0
        assert artifact.finished

    def test_replay_is_memoized(self, trace, design):
        runner = PipelineRunner()
        driver = TraceDrivenInitiator(trace)
        first = runner.replay(driver, design)
        second = runner.replay(driver, design)
        assert first is second
        assert runner.counters.computed.get("replay") == 1
        assert runner.counters.memo_hits.get("replay") == 1

    def test_replay_persists_across_runners(self, trace, design, tmp_path):
        cold = PipelineRunner(
            store=ArtifactStore(disk=ResultCache(tmp_path / "cache"))
        )
        driver = TraceDrivenInitiator(trace)
        first = cold.replay(driver, design)

        warm = PipelineRunner(
            store=ArtifactStore(disk=ResultCache(tmp_path / "cache"))
        )
        second = warm.replay(driver, design)
        assert warm.counters.disk_hits.get("replay") == 1
        assert "replay" not in warm.counters.computed
        assert second.to_payload() == first.to_payload()

    def test_different_designs_do_not_share_replays(self, trace, design):
        from repro.core import shared_bus_design

        runner = PipelineRunner()
        driver = TraceDrivenInitiator(trace)
        a = runner.replay(driver, design)
        b = runner.replay(driver, shared_bus_design(trace))
        assert a.fingerprint != b.fingerprint
        assert runner.counters.computed.get("replay") == 2

    def test_payload_round_trips(self, trace, design):
        runner = PipelineRunner()
        artifact = runner.replay(TraceDrivenInitiator(trace), design)
        rebuilt = ReplayArtifact.from_payload(
            artifact.to_payload(), artifact.fingerprint
        )
        assert rebuilt == artifact

    def test_malformed_payload_is_a_miss(self, trace, design, tmp_path):
        cold = PipelineRunner(
            store=ArtifactStore(disk=ResultCache(tmp_path / "cache"))
        )
        driver = TraceDrivenInitiator(trace)
        artifact = cold.replay(driver, design)

        warm_store = ArtifactStore(disk=ResultCache(tmp_path / "cache"))
        warm_store.put_payload(artifact.fingerprint, {"stats": "garbage"})
        warm = PipelineRunner(store=warm_store)
        recomputed = warm.replay(driver, design)
        assert warm.counters.computed.get("replay") == 1
        assert recomputed.to_payload() == artifact.to_payload()


class TestWindowSidecars:
    def test_fresh_runner_rebuilds_window_from_npz(self, trace, tmp_path):
        cache = tmp_path / "cache"
        cold = PipelineRunner(store=ArtifactStore(disk=ResultCache(cache)))
        original = cold.window(cold.collect(trace), CONFIG, 500, mirrored=False)
        assert list(cache.glob("stage-*.npz"))

        warm = PipelineRunner(store=ArtifactStore(disk=ResultCache(cache)))
        rebuilt = warm.window(
            warm.collect(trace), CONFIG, 500, mirrored=False
        )
        assert warm.counters.disk_hits.get("window") == 1
        assert "window" not in warm.counters.computed
        assert np.array_equal(rebuilt.problem.comm, original.problem.comm)
        assert np.array_equal(rebuilt.problem.wo, original.problem.wo)
        assert np.array_equal(
            rebuilt.problem.capacities, original.problem.capacities
        )
        assert rebuilt.problem.window_size == original.problem.window_size
        assert rebuilt.problem.target_names == original.problem.target_names
        assert (
            rebuilt.problem.criticality == original.problem.criticality
        )

    def test_sidecar_solve_matches_recomputed_solve(self, trace, tmp_path):
        """A binding solved on the rebuilt problem is byte-identical."""
        cache = tmp_path / "cache"
        cold = PipelineRunner(store=ArtifactStore(disk=ResultCache(cache)))
        collected = cold.collect(trace)
        windowed = cold.window(collected, CONFIG, 500, mirrored=False)
        conflicts = cold.conflicts(windowed, CONFIG)
        reference = cold.bind(windowed, conflicts, CONFIG)

        rebuilt = PipelineRunner(store=ArtifactStore(disk=ResultCache(cache)))
        windowed2 = rebuilt.window(
            rebuilt.collect(trace), CONFIG, 500, mirrored=False
        )
        assert rebuilt.counters.disk_hits.get("window") == 1
        conflicts2 = rebuilt.conflicts(windowed2, CONFIG)
        solved = rebuilt.bind(windowed2, conflicts2, CONFIG)
        assert solved.binding == reference.binding
        assert solved.search == reference.search

    def test_mirrored_flag_mismatch_is_a_miss(self, trace, tmp_path):
        """A sidecar for the other crossbar side must not be served."""
        cache = tmp_path / "cache"
        cold = PipelineRunner(store=ArtifactStore(disk=ResultCache(cache)))
        it_side = cold.window(cold.collect(trace), CONFIG, 500, mirrored=False)

        # Forge a sidecar collision: copy the IT arrays under a fake
        # fingerprint, then ask for a mirrored window at that key.
        from repro.pipeline.runner import _window_arrays, _window_from_arrays

        arrays = _window_arrays(it_side)
        assert _window_from_arrays(arrays, "fp", mirrored=True) is None
        assert _window_from_arrays(arrays, "fp", mirrored=False) is not None

    def test_cache_clear_removes_sidecars(self, trace, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = PipelineRunner(store=ArtifactStore(disk=cache))
        runner.window(runner.collect(trace), CONFIG, 500, mirrored=False)
        assert list((tmp_path / "cache").glob("stage-*.npz"))
        assert cache.usage().entries > 0
        cache.clear()
        assert cache.usage().entries == 0
        assert not list((tmp_path / "cache").glob("stage-*.npz"))

    def test_corrupt_sidecar_degrades_to_recompute(self, trace, tmp_path):
        cache = tmp_path / "cache"
        cold = PipelineRunner(store=ArtifactStore(disk=ResultCache(cache)))
        original = cold.window(
            cold.collect(trace), CONFIG, 500, mirrored=False
        )
        for sidecar in cache.glob("stage-*.npz"):
            sidecar.write_bytes(b"not an npz archive")

        warm = PipelineRunner(store=ArtifactStore(disk=ResultCache(cache)))
        rebuilt = warm.window(
            warm.collect(trace), CONFIG, 500, mirrored=False
        )
        assert warm.counters.computed.get("window") == 1
        assert np.array_equal(rebuilt.problem.comm, original.problem.comm)
