"""The one on-disk tensor format: compressed ``.npz`` stage sidecars.

Window tensors and the collect stage's columnar trace persist as one
``stage-<fingerprint>.npz`` file each, next to the JSON entries. These
tests pin the format's write-once, heal-on-corrupt and cache-accounting
behaviour, and that a cache directory holds plain files only.
"""

import numpy as np

from repro.cli import main
from repro.exec import ResultCache
from repro.pipeline import ArtifactStore


def _arrays():
    return {
        "comm": np.arange(24.0).reshape(2, 3, 4),
        "wo": np.ones((3, 4), dtype=np.int64),
        "caps": np.array([7.5, 2.25]),
    }


class TestNpzSidecar:
    def test_put_writes_one_npz_file_and_get_reads_it(self, tmp_path):
        store = ArtifactStore(disk=ResultCache(tmp_path))
        source = _arrays()
        store.put_arrays("fp", source)
        assert [p.name for p in tmp_path.iterdir()] == ["stage-fp.npz"]
        loaded = store.get_arrays("fp")
        assert loaded is not None
        assert sorted(loaded) == sorted(source)
        for name, arr in source.items():
            np.testing.assert_array_equal(loaded[name], arr)
            assert loaded[name].dtype == arr.dtype

    def test_put_skips_reserialize_when_sidecar_exists(
        self, tmp_path, monkeypatch
    ):
        store = ArtifactStore(disk=ResultCache(tmp_path))
        store.put_arrays("fp", _arrays())

        def _boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("re-serialized an existing sidecar")

        monkeypatch.setattr(np, "savez_compressed", _boom)
        store.put_arrays("fp", _arrays())  # must not re-serialize
        assert store.get_arrays("fp") is not None

    def test_corrupt_npz_is_unlinked_for_rewrite(self, tmp_path):
        store = ArtifactStore(disk=ResultCache(tmp_path))
        store.put_arrays("fp", _arrays())
        (tmp_path / "stage-fp.npz").write_bytes(b"rotten")
        assert store.get_arrays("fp") is None
        # The rotten file must not shadow the next write-through.
        assert not (tmp_path / "stage-fp.npz").exists()
        store.put_arrays("fp", _arrays())
        assert store.get_arrays("fp") is not None


class TestCacheAccounting:
    def test_usage_counts_the_npz_sidecar(self, tmp_path):
        cache = ResultCache(tmp_path)
        ArtifactStore(disk=cache).put_arrays("fp", _arrays())
        usage = cache.usage()
        assert usage.entries == 1
        assert usage.total_bytes == (tmp_path / "stage-fp.npz").stat().st_size

    def test_prune_evicts_npz_sidecars(self, tmp_path):
        cache = ResultCache(tmp_path)
        ArtifactStore(disk=cache).put_arrays("fp", _arrays())
        assert cache.prune(max_bytes=0) == 1
        assert cache.usage().entries == 0
        assert not (tmp_path / "stage-fp.npz").exists()

    def test_stale_sidecar_directories_are_ignored(self, tmp_path):
        """A directory left beside the ``.npz`` by an older cache layout
        is neither counted, pruned nor read; it is safe to ``rm -r``."""
        cache = ResultCache(tmp_path)
        store = ArtifactStore(disk=cache)
        store.put_arrays("fp", _arrays())
        stale = tmp_path / "stage-fp.mmap"
        stale.mkdir()
        (stale / "comm.npy").write_bytes(b"stale")
        assert cache.usage().entries == 1
        np.testing.assert_array_equal(
            store.get_arrays("fp")["comm"], _arrays()["comm"]
        )
        assert cache.prune(max_bytes=0) == 1
        assert cache.clear() == 0
        assert stale.is_dir()


class TestOneFormat:
    def test_pipeline_inspect_writes_plain_files_only(self, tmp_path, capsys):
        """A cold ``pipeline inspect`` leaves only files in the cache
        directory; a warm re-run reads both window sides from their
        ``.npz`` sidecars and prints the same stage artifacts."""
        cache_dir = tmp_path / "cache"
        argv = ["pipeline", "inspect", "qsort", "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        entries = list(cache_dir.iterdir())
        assert entries and all(entry.is_file() for entry in entries)
        assert any(entry.suffix == ".npz" for entry in entries)

        assert main(argv) == 0
        warm = capsys.readouterr().out
        window_row = [
            line.split() for line in warm.splitlines()
            if line.startswith("window ")
        ]
        # computed, memo-hit, disk-hit
        assert window_row == [["window", "0", "0", "2"]]
        counters = "stage                     computed"
        assert warm.split(counters)[0] == cold.split(counters)[0]
        assert sorted(cache_dir.iterdir()) == sorted(entries)
