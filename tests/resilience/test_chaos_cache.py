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
from repro.obs.metrics import REGISTRY
from repro.pipeline import ArtifactStore, CollectStage
from repro.pipeline.store import stage_tables
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
        baseline_engine = ExecutionEngine(cache=str(tmp_path))
        baseline = sweep_bytes(baseline_engine.run_sweep(small_trace, tasks))
        assert baseline_engine.cache.stats.stores == len(tasks)

        # Every read of an existing entry now decodes to garbage.
        install_plan(
            FaultPlan(rules={"cache.corrupt": FaultRule(rate=1.0)})
        )
        chaos_engine = ExecutionEngine(cache=ResultCache(tmp_path))
        results = chaos_engine.run_sweep(small_trace, tasks)
        assert sweep_bytes(results) == baseline
        stats = chaos_engine.cache.stats
        assert stats.invalid == len(tasks)   # corrupt reads -> misses
        assert stats.stores == len(tasks)    # re-solved and rewritten

        # Injection off again: the rewritten entries serve warm hits.
        clear_plan()
        warm_engine = ExecutionEngine(cache=ResultCache(tmp_path))
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
        assert cache.stage_stats.invalid == 1


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
        assert cache.stage_stats.stores == 1
        assert cache.stage_stats.write_errors == 0

    def test_persistent_failure_is_swallowed_and_counted(self, tmp_path):
        install_plan(
            FaultPlan(rules={"io.transient": FaultRule(rate=1.0)})
        )
        cache = ResultCache(tmp_path)
        cache.put_json("k1", {"value": 1})  # must not raise
        assert cache.stage_stats.write_errors == 1
        assert cache.stage_stats.stores == 0
        assert "k1" not in cache

    def test_write_failure_never_fails_the_solve(
        self, small_trace, tasks, tmp_path
    ):
        """The whole point of best-effort persistence: a sweep over a
        dead disk still returns correct results."""
        baseline = sweep_bytes(
            ExecutionEngine().run_sweep(small_trace, tasks)
        )
        install_plan(
            FaultPlan(rules={"io.transient": FaultRule(rate=1.0)})
        )
        engine = ExecutionEngine(cache=str(tmp_path))
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
        cut = REGISTRY.snapshot()
        trace = collector.source(build_application("qsort")).trace()
        return trace, stage_tables(cut)["computed"].get("collect", 0)

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


class TestScenarioTraceEntries:
    """A damaged scenario trace entry rebuilds its trace; a suite run
    over it reports what the cold run reported and files nothing under
    a stale digest."""

    ARGV = ["scenarios", "run", "smoke", "--replay-latency", "--explain-cache"]

    @pytest.fixture()
    def cold(self, tmp_path, capsys):
        """The cache of a cold smoke run, its report, and its files."""
        cache = tmp_path / "cache"
        report = self.run(cache, tmp_path / "cold.json", capsys)[0]
        return cache, report, self.files(cache)

    def run(self, cache, report, capsys):
        """A smoke run's JSON report and its ``collect`` row
        (computed, memo hits, disk hits)."""
        argv = [*self.ARGV, "--cache-dir", str(cache), "--report", str(report)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        (row,) = [line for line in out.splitlines() if line.startswith("collect ")]
        return report.read_bytes(), [int(cell) for cell in row.split()[1:]]

    @staticmethod
    def files(cache):
        return sorted(path.name for path in cache.iterdir())

    @staticmethod
    def entries(cache):
        """The stored scenario traces' payload files (all four smoke
        scenarios are profile-generated)."""
        return sorted(
            path for path in cache.glob("stage-*.json")
            if "columns" in json.loads(path.read_text())["payload"]
        )

    def drop_window_sidecars(self, cache):
        """Make the next run's windows compute, so they load the trace."""
        keep = {path.with_suffix(".npz") for path in self.entries(cache)}
        for path in cache.glob("stage-*.npz"):
            if path not in keep:
                path.unlink()

    def test_intact_entries_are_read_not_rebuilt(self, cold, tmp_path, capsys):
        cache, report, files = cold
        warm, collect = self.run(cache, tmp_path / "warm.json", capsys)
        assert collect == [0, 0, 4]
        assert warm == report
        assert self.files(cache) == files

    def test_corrupt_payload_rebuilds_the_trace(self, cold, tmp_path, capsys):
        cache, report, files = cold
        entry = self.entries(cache)[0]
        entry.write_text(entry.read_text()[:40])
        warm, collect = self.run(cache, tmp_path / "warm.json", capsys)
        assert collect == [1, 0, 3]
        assert warm == report
        assert self.files(cache) == files

    @pytest.mark.parametrize("damage", ["truncate", "delete"])
    def test_bad_sidecar_rebuilds_the_trace(self, cold, damage, tmp_path, capsys):
        cache, report, _ = cold
        self.drop_window_sidecars(cache)
        npz = self.entries(cache)[0].with_suffix(".npz")
        if damage == "truncate":
            npz.write_bytes(npz.read_bytes()[:64])
        else:
            npz.unlink()
        warm, collect = self.run(cache, tmp_path / "warm.json", capsys)
        assert collect == [1, 0, 4]  # read from disk, rebuilt on load
        assert warm == report
        assert npz.exists()  # healed

    def test_tampered_digest_rebuilds_and_files_nothing_under_it(
        self, cold, tmp_path, capsys
    ):
        cache, report, files = cold
        entry = self.entries(cache)[0]
        payload = json.loads(entry.read_text())
        payload["payload"]["digest"] = "0" * 64
        entry.write_text(json.dumps(payload))
        warm, collect = self.run(cache, tmp_path / "warm.json", capsys)
        # Four disk hits, one rebuild, then the restarted pass reads all
        # four sources from the collector's memory.
        assert collect == [1, 4, 4]
        assert warm == report
        # The entry was rewritten under its own digest, and no window,
        # solve or replay was filed under the bogus one.
        assert self.files(cache) == files
        assert json.loads(entry.read_text()) != payload
        healed, collect = self.run(cache, tmp_path / "healed.json", capsys)
        assert collect == [0, 0, 4]
        assert healed == report

    def test_replay_miss_under_a_tampered_digest_stores_nothing(self, tmp_path):
        from repro.exec.fingerprint import trace_fingerprint
        from repro.pipeline import PipelineRunner
        from repro.pipeline.artifacts import TraceDigestMismatch
        from repro.platform import TraceDrivenInitiator
        from repro.scenarios import ScenarioSuiteRunner, build_suite

        scenario = build_suite("smoke").scenarios[0]
        engine = ExecutionEngine(cache=str(tmp_path))
        fresh = ScenarioSuiteRunner(engine=engine)._scenario_source(scenario)
        (entry,) = self.entries(tmp_path)
        payload = json.loads(entry.read_text())
        payload["payload"]["digest"] = "0" * 64
        entry.write_text(json.dumps(payload))

        runner = ScenarioSuiteRunner(engine=ExecutionEngine(cache=str(tmp_path)))
        cut = REGISTRY.snapshot()
        source = runner._scenario_source(scenario)
        assert source.digest == "0" * 64
        design = PipelineRunner().design(fresh.trace(), CONFIG, 800).design
        stale = TraceDrivenInitiator(source)
        key = runner.engine.pipeline.replay_fingerprint(stale, design)
        with pytest.raises(TraceDigestMismatch):
            runner.engine.pipeline.replay(stale, design)
        assert runner.engine.pipeline.store.get(key) is None
        assert runner.engine.pipeline.store.get_payload(key) is None
        assert stage_tables(cut)["computed"].get("collect") == 1  # rebuilt

        # The source now carries the rebuilt trace's own digest: a
        # driver built from it replays, and stores, under that one.
        assert source.digest == trace_fingerprint(fresh.trace())
        replayed = runner.engine.pipeline.replay(TraceDrivenInitiator(source), design)
        assert replayed.fingerprint != key
        assert runner.engine.pipeline.store.get_payload(replayed.fingerprint) is not None
