"""Chaos tests: cache corruption and transient I/O never poison results.

A cache is an optimization, never a source of truth: corrupted entries
(injected via ``cache.corrupt``, or genuinely truncated on disk) must
read as misses and be re-solved to byte-identical values, and failing
writes (``io.transient``) must degrade to recomputation -- counted,
never raised into the solve that produced the value.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.apps import build_application
from repro.apps.synthetic import synthetic_trace
from repro.cli import main
from repro.core import SynthesisConfig
from repro.exec import ExecutionEngine, ResultCache, SynthesisTask, result_to_dict
from repro.pipeline import ArtifactStore, CollectStage
from repro.platform import SIMULATION_COUNTER
from repro.resilience import FaultPlan, FaultRule, clear_plan, install_plan

WINDOWS = [150, 2_400]
CONFIG = SynthesisConfig(max_targets_per_bus=None)


@pytest.fixture(scope="module")
def small_trace():
    return synthetic_trace(
        burst_cycles=300, total_cycles=6_000, num_initiators=4,
        num_targets=4, seed=3,
    )


@pytest.fixture(scope="module")
def tasks():
    return [SynthesisTask(config=CONFIG, window_size=w) for w in WINDOWS]


def collector_at(cache_dir):
    return CollectStage(ArtifactStore(disk=ResultCache(cache_dir)))


def sweep_bytes(results):
    return json.dumps(
        [result_to_dict(r) for r in results], sort_keys=True
    ).encode()


class TestCorruptedEntries:
    def test_injected_corruption_is_resolved_byte_identically(
        self, small_trace, tasks, tmp_path
    ):
        baseline_engine = ExecutionEngine(jobs=1, cache=str(tmp_path))
        baseline = sweep_bytes(baseline_engine.run_sweep(small_trace, tasks))
        assert baseline_engine.cache.stats.stores == len(tasks)

        # Every read of an existing entry now decodes to garbage.
        install_plan(
            FaultPlan(rules={"cache.corrupt": FaultRule(rate=1.0)})
        )
        chaos_engine = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path))
        results = chaos_engine.run_sweep(small_trace, tasks)
        assert sweep_bytes(results) == baseline
        stats = chaos_engine.cache.stats
        assert stats.invalid == len(tasks)   # corrupt reads -> misses
        assert stats.stores == len(tasks)    # re-solved and rewritten

        # Injection off again: the rewritten entries serve warm hits.
        clear_plan()
        warm_engine = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path))
        warm = warm_engine.run_sweep(small_trace, tasks)
        assert sweep_bytes(warm) == baseline
        assert warm_engine.cache.stats.hits == len(tasks)
        assert warm_engine.cache.stats.misses == 0

    def test_truncated_entry_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_json("abc123", {"format": "x", "value": 1})
        path = tmp_path / "abc123.json"
        path.write_bytes(path.read_bytes()[:7])  # torn mid-write
        assert cache.get_json("abc123") is None
        assert cache.stats.invalid == 1


class TestTransientWrites:
    def test_first_attempt_failure_is_retried_and_lands(self, tmp_path):
        install_plan(
            FaultPlan(
                rules={"io.transient": FaultRule(rate=1.0, match=("*:a0",))}
            )
        )
        cache = ResultCache(tmp_path)
        cache.put_json("k1", {"value": 1})
        assert cache.get_json("k1") == {"value": 1}
        assert cache.stats.stores == 1
        assert cache.stats.write_errors == 0

    def test_persistent_failure_is_swallowed_and_counted(self, tmp_path):
        install_plan(
            FaultPlan(rules={"io.transient": FaultRule(rate=1.0)})
        )
        cache = ResultCache(tmp_path)
        cache.put_json("k1", {"value": 1})  # must not raise
        assert cache.stats.write_errors == 1
        assert cache.stats.stores == 0
        assert "k1" not in cache

    def test_write_failure_never_fails_the_solve(
        self, small_trace, tasks, tmp_path
    ):
        """The whole point of best-effort persistence: a sweep over a
        dead disk still returns correct results."""
        baseline = sweep_bytes(
            ExecutionEngine(jobs=1).run_sweep(small_trace, tasks)
        )
        install_plan(
            FaultPlan(rules={"io.transient": FaultRule(rate=1.0)})
        )
        engine = ExecutionEngine(jobs=1, cache=str(tmp_path))
        results = engine.run_sweep(small_trace, tasks)
        assert sweep_bytes(results) == baseline
        assert engine.cache.stats.write_errors >= len(tasks)


class TestOrphanSweep:
    def _make_tmp(self, directory, name, age_s):
        path = directory / name
        path.write_text("partial")
        old = time.time() - age_s
        os.utime(path, (old, old))
        return path

    def test_construction_sweeps_stale_tmp_files(self, tmp_path):
        stale = self._make_tmp(tmp_path, ".tmp-dead1.json", 2 * 3600)
        fresh = self._make_tmp(tmp_path, ".tmp-live2.json", 1)
        entry = tmp_path / "realkey.json"
        entry.write_text("{}")

        ResultCache(tmp_path)
        assert not stale.exists()       # orphan from a killed writer
        assert fresh.exists()           # possibly a live writer: kept
        assert entry.exists()           # real entries untouched

    def test_prune_sweeps_orphans_too(self, tmp_path):
        cache = ResultCache(tmp_path)
        stale = self._make_tmp(tmp_path, ".tmp-dead3.npz", 2 * 3600)
        cache.prune(max_bytes=10**9)
        assert not stale.exists()

    def test_explicit_sweep_with_zero_age_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._make_tmp(tmp_path, ".tmp-a.json", 1)
        self._make_tmp(tmp_path, ".tmp-b.npz", 1)
        assert cache.sweep_orphans(max_age_s=0) == 2

    def test_orphans_are_invisible_to_keys_and_usage(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_json("goodkey", {"value": 1})
        self._make_tmp(tmp_path, ".tmp-orphan.json", 1)
        assert list(cache.keys()) == ["goodkey"]
        assert cache.usage().entries == 1


class TestTensorSidecars:
    def test_truncated_npz_sidecar_is_a_miss(self, tmp_path):
        store = ArtifactStore(disk=ResultCache(tmp_path))
        arrays = {"comm": np.arange(12.0).reshape(3, 4)}
        store.put_arrays("fp1", arrays)
        loaded = store.get_arrays("fp1")
        assert loaded is not None
        np.testing.assert_array_equal(loaded["comm"], arrays["comm"])

        path = tmp_path / "stage-fp1.npz"
        path.write_bytes(path.read_bytes()[:10])  # torn mid-write
        assert store.get_arrays("fp1") is None

    def test_garbage_npz_sidecar_is_a_miss(self, tmp_path):
        store = ArtifactStore(disk=ResultCache(tmp_path))
        (tmp_path / "stage-fp2.npz").write_bytes(b"not a zip archive")
        assert store.get_arrays("fp2") is None

    def test_sidecar_write_failure_is_silent(self, tmp_path, monkeypatch):
        store = ArtifactStore(disk=ResultCache(tmp_path))

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        store.put_arrays("fp3", {"x": np.zeros(2)})  # must not raise
        monkeypatch.undo()
        assert store.get_arrays("fp3") is None
        # The temp file was cleaned up on the failure path.
        assert list(tmp_path.glob(".tmp-*")) == []


class TestCollectEntries:
    """A damaged input-keyed ``collect`` entry re-simulates; it never
    answers with the wrong trace."""

    @pytest.fixture()
    def filled(self, tmp_path):
        """A cache holding qsort's collect entry, plus the fresh trace."""
        fresh = collector_at(tmp_path).source(build_application("qsort"))
        return tmp_path, fresh.trace()

    @staticmethod
    def reload(cache_dir):
        """A fresh collector's trace for qsort and how many times it had
        to collect it anew (simulate, or take this process's memo of an
        earlier simulation) instead of loading the stored entry."""
        collector = collector_at(cache_dir)
        trace = collector.source(build_application("qsort")).trace()
        return trace, collector.counters.computed.get("collect", 0)

    @staticmethod
    def sidecar(cache_dir):
        (npz,) = cache_dir.glob("stage-*.npz")
        return npz

    def test_intact_entry_loads_without_simulating(self, filled):
        cache_dir, fresh = filled
        trace, recollected = self.reload(cache_dir)
        assert recollected == 0
        assert trace.records == fresh.records

    def test_injected_payload_corruption_resimulates(self, filled):
        cache_dir, fresh = filled
        install_plan(
            FaultPlan(
                rules={"cache.corrupt": FaultRule(rate=1.0, match=["stage-*"])}
            )
        )
        trace, recollected = self.reload(cache_dir)
        assert recollected == 1
        assert trace.records == fresh.records

    def test_truncated_sidecar_resimulates_and_heals(self, filled):
        cache_dir, fresh = filled
        npz = self.sidecar(cache_dir)
        npz.write_bytes(npz.read_bytes()[:64])  # torn mid-write
        trace, recollected = self.reload(cache_dir)
        assert recollected == 1
        assert trace.records == fresh.records
        trace, recollected = self.reload(cache_dir)  # rewritten: loads again
        assert recollected == 0
        assert trace.records == fresh.records

    def test_missing_sidecar_resimulates(self, filled):
        cache_dir, fresh = filled
        npz = self.sidecar(cache_dir)
        npz.unlink()
        trace, recollected = self.reload(cache_dir)
        assert recollected == 1
        assert trace.records == fresh.records

    def test_digest_mismatch_resimulates_and_heals(self, filled):
        cache_dir, fresh = filled
        # A well-formed sidecar with different content: one record's
        # burst changed, which the stored digest no longer matches.
        npz = self.sidecar(cache_dir)
        store = ArtifactStore(disk=ResultCache(cache_dir))
        key = npz.name[len("stage-"):-len(".npz")]
        arrays = {
            name: np.array(array) for name, array in
            store.get_arrays(key).items()
        }
        arrays["records"][0, 3] += 1
        store.drop_arrays(key)
        store.put_arrays(key, arrays)
        trace, recollected = self.reload(cache_dir)
        assert recollected == 1
        assert trace.records == fresh.records
        trace, recollected = self.reload(cache_dir)
        assert recollected == 0
        assert trace.records == fresh.records

    def test_tampered_digest_never_changes_a_design(self, tmp_path, capsys):
        argv = ["design", "qsort", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        # Point the collect entry at a digest no trace has: the result
        # lookup misses, and the loaded records fail the digest check.
        (entry,) = [
            path for path in tmp_path.glob("stage-*.json")
            if "digest" in json.loads(path.read_text())["payload"]
        ]
        payload = json.loads(entry.read_text())
        payload["payload"]["digest"] = "0" * 64
        entry.write_text(json.dumps(payload))
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm.splitlines()[:-1] == cold.splitlines()[:-1]
        # The re-collected trace's own digest finds the stored result,
        # and nothing is stored under the bogus one.
        assert warm.splitlines()[-1] == (
            "cache: 1/2 hits, 0 stores, 0 invalid entries, 0 write errors"
        )
        # The entry was rewritten: the next run is a plain warm run.
        SIMULATION_COUNTER.reset()
        assert main(argv) == 0
        healed = capsys.readouterr().out
        assert SIMULATION_COUNTER.runs == 0
        assert healed.splitlines()[:-1] == cold.splitlines()[:-1]
        assert healed.splitlines()[-1] == (
            "cache: 1/1 hits, 0 stores, 0 invalid entries, 0 write errors"
        )

    def test_prune_evicts_collect_entries(self, filled, capsys):
        cache_dir, fresh = filled
        assert main(["cache", "prune", str(cache_dir), "--max-bytes", "0"]) == 0
        capsys.readouterr()
        assert list(cache_dir.glob("stage-*")) == []
        trace, recollected = self.reload(cache_dir)
        assert recollected == 1
        assert trace.records == fresh.records
