"""Cache hit/miss semantics and on-disk robustness."""

import pytest

from repro.core import BusBinding, CrossbarDesign, SynthesisConfig
from repro.errors import ReproError
from repro.exec import ResultCache, SynthesisResult
from repro.exec.cache import CacheStats

KEY_A = "a" * 64
KEY_B = "b" * 64


def _result(num_buses: int = 2) -> SynthesisResult:
    binding = BusBinding(
        binding=tuple(i % num_buses for i in range(4)), num_buses=num_buses
    )
    return SynthesisResult(
        design=CrossbarDesign(it=binding, ti=binding),
        window_size=400,
        config=SynthesisConfig(window_size=400),
    )


class TestHitMiss:
    def test_empty_cache_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(KEY_A) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_put_then_get_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _result()
        cache.put(KEY_A, result)
        assert cache.get(KEY_A) == result
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_keys_are_independent(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, _result(2))
        cache.put(KEY_B, _result(3))
        assert cache.get(KEY_A).design.it.num_buses == 2
        assert cache.get(KEY_B).design.it.num_buses == 3

    def test_persists_across_instances(self, tmp_path):
        ResultCache(tmp_path).put(KEY_A, _result())
        assert ResultCache(tmp_path).get(KEY_A) == _result()

    def test_contains_and_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert KEY_A not in cache
        cache.put(KEY_A, _result())
        assert KEY_A in cache
        assert list(cache.keys()) == [KEY_A]

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, _result())
        cache.put(KEY_B, _result())
        assert cache.clear() == 2
        assert cache.get(KEY_A) is None


class TestRobustness:
    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, _result())
        (tmp_path / f"{KEY_A}.json").write_text("{ not json", encoding="utf-8")
        assert cache.get(KEY_A) is None
        assert cache.stats.invalid == 1

    def test_binary_garbage_entry_is_a_miss_and_recoverable(self, tmp_path):
        """A corrupted/truncated entry (here: non-UTF-8 bytes) must be a
        cache miss that a later put() overwrites, never an error."""
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, _result())
        (tmp_path / f"{KEY_A}.json").write_bytes(b"\xff\xfe\x00garbage\x9c")
        assert cache.get(KEY_A) is None
        assert cache.stats.invalid == 1
        cache.put(KEY_A, _result(3))
        assert cache.get(KEY_A).design.it.num_buses == 3

    def test_truncated_entry_is_a_miss(self, tmp_path):
        """A writer killed mid-write leaves a valid-prefix JSON torso."""
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, _result())
        path = tmp_path / f"{KEY_A}.json"
        path.write_text(path.read_text(encoding="utf-8")[:40], encoding="utf-8")
        assert cache.get(KEY_A) is None
        assert cache.stats.invalid == 1

    def test_wrong_shape_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / f"{KEY_A}.json").write_text("[1, 2, 3]", encoding="utf-8")
        assert cache.get(KEY_A) is None
        assert cache.stats.invalid == 1

    def test_stale_format_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / f"{KEY_A}.json").write_text(
            '{"format": "repro-result-v0"}', encoding="utf-8"
        )
        assert cache.get(KEY_A) is None
        assert cache.stats.invalid == 1

    def test_overwrite_replaces_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, _result(2))
        cache.put(KEY_A, _result(3))
        assert cache.get(KEY_A).design.it.num_buses == 3

    def test_no_temp_file_litter(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, _result())
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name.startswith(".tmp-")]
        assert leftovers == []

    def test_rejects_path_traversal_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        for bad in ("", "../evil", "a/b", "dotted.key"):
            with pytest.raises(ReproError):
                cache.get(bad)

    def test_rejects_cache_path_that_is_a_file(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("occupied", encoding="utf-8")
        with pytest.raises(ReproError):
            ResultCache(target)

    def test_orphaned_temp_files_are_invisible(self, tmp_path):
        """A writer killed mid-put leaves .tmp-*.json; keys()/clear()
        must ignore it rather than treat it as an entry."""
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, _result())
        (tmp_path / ".tmp-orphan.json").write_text("{}", encoding="utf-8")
        assert list(cache.keys()) == [KEY_A]
        assert cache.clear() == 1
        assert list(cache.keys()) == []


class TestGenericEntries:
    """Per-stage JSON entries sharing the directory with results."""

    def test_json_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_json(KEY_A, {"format": "x", "payload": {"n": 3}})
        assert cache.get_json(KEY_A) == {"format": "x", "payload": {"n": 3}}
        assert cache.stage_stats.hits == 1
        assert cache.stage_stats.stores == 1
        # Stage entries never show up in the whole-result statistics.
        assert cache.stats == CacheStats(
            hits=0, misses=0, stores=0, invalid=0, write_errors=0
        )

    def test_json_miss_and_corrupt_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get_json(KEY_A) is None
        (tmp_path / f"{KEY_B}.json").write_bytes(b"\xff\xfe garbage")
        assert cache.get_json(KEY_B) is None
        assert cache.stage_stats.invalid == 1

    def test_json_rejects_malformed_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ReproError):
            cache.get_json("../evil")


class TestUsageAndPrune:
    def test_usage_counts_entries_and_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.usage().entries == 0
        cache.put(KEY_A, _result())
        cache.put_json(KEY_B, {"x": 1})
        usage = cache.usage()
        assert usage.entries == 2
        assert usage.total_bytes == sum(
            (tmp_path / f"{k}.json").stat().st_size for k in (KEY_A, KEY_B)
        )

    def test_prune_noop_when_under_budget(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, _result())
        assert cache.prune(cache.usage().total_bytes) == 0
        assert KEY_A in cache

    def test_prune_evicts_least_recently_used(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        cache.put(KEY_A, _result())
        cache.put(KEY_B, _result())
        # Age A far into the past, then touch it via a hit: the hit must
        # refresh its recency so B (untouched, older access) goes first.
        os.utime(tmp_path / f"{KEY_A}.json", (1, 1))
        os.utime(tmp_path / f"{KEY_B}.json", (2, 2))
        assert cache.get(KEY_A) is not None
        one_entry = (tmp_path / f"{KEY_A}.json").stat().st_size
        assert cache.prune(one_entry) == 1
        assert KEY_A in cache
        assert KEY_B not in cache

    def test_prune_to_zero_empties_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, _result())
        cache.put(KEY_B, _result())
        assert cache.prune(0) == 2
        assert cache.usage().entries == 0

    def test_prune_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ReproError):
            ResultCache(tmp_path).prune(-1)

    def test_foreign_json_files_are_invisible(self, tmp_path):
        """A stray 'report.v2.json' dropped into the directory must not
        break usage()/prune()/clear() -- its stem is not a valid key."""
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, _result())
        (tmp_path / "report.v2.json").write_text("{}", encoding="utf-8")
        assert list(cache.keys()) == [KEY_A]
        assert cache.usage().entries == 1
        assert cache.prune(0) == 1
        assert (tmp_path / "report.v2.json").exists()  # left untouched


class TestConcurrency:
    """The daemon shares one cache across handler and worker threads;
    maintenance walks and statistics must survive the races."""

    def test_usage_and_prune_tolerate_racing_writers(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path)
        stop = threading.Event()
        errors = []

        def churn(prefix):
            i = 0
            try:
                while not stop.is_set():
                    key = f"{prefix}{i % 20:064d}"[-64:]
                    cache.put_json(key, {"i": i})
                    i += 1
            except Exception as error:  # pragma: no cover - the failure
                errors.append(error)

        def maintain():
            try:
                while not stop.is_set():
                    cache.usage()
                    cache.prune(256)
            except Exception as error:  # pragma: no cover - the failure
                errors.append(error)

        threads = [
            threading.Thread(target=churn, args=("a",)),
            threading.Thread(target=churn, args=("b",)),
            threading.Thread(target=maintain),
            threading.Thread(target=maintain),
        ]
        for thread in threads:
            thread.start()
        import time

        time.sleep(0.5)
        stop.set()
        for thread in threads:
            thread.join()
        assert errors == []
        usage = cache.usage()  # still a coherent view afterwards
        assert usage.entries >= 0

    def test_stats_updates_are_not_lost_across_threads(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path)
        cache.put_json("c" * 64, {"v": 1})
        per_thread = 200
        threads = [
            threading.Thread(
                target=lambda: [
                    cache.get_json("c" * 64) for _ in range(per_thread)
                ]
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.stage_stats.hits == 4 * per_thread
        assert cache.stage_stats.stores == 1
