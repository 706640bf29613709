"""Content-addressed on-disk result cache.

Each entry is stored as ``<key>.json`` under the cache directory. Two
entry families share the directory:

* **whole-result entries** (:meth:`ResultCache.get` / ``put``) -- one
  solved synthesis point per entry, keyed by its design fingerprint
  (:meth:`~repro.pipeline.runner.PipelineRunner.design_fingerprint`)
  and read and written only by
  :meth:`~repro.exec.engine.ExecutionEngine.lookup_or_solve`;
* **per-stage entries** (:meth:`ResultCache.get_json` / ``put_json``) --
  generic JSON payloads keyed by pipeline stage fingerprints (see
  :mod:`repro.pipeline.store`), so intermediate artifacts persist at
  stage granularity, not only end to end.

One instance serves a directory and counts each family apart:
:attr:`ResultCache.stats` (the ``cache:`` line, ``/v1/stats``) and
:attr:`ResultCache.stage_stats`.

Writes are atomic (temp file + ``os.replace``) so concurrent sweeps
sharing a cache directory never observe torn entries; corrupt or
stale-format entries are treated as misses and rewritten. Hits touch
the entry's mtime, making :meth:`ResultCache.prune` a true
least-recently-used eviction.

The cache is safe under concurrent access from threads *and* unrelated
processes: the maintenance walks (:meth:`ResultCache.usage`,
:meth:`ResultCache.prune`, :meth:`ResultCache.clear`) tolerate entries
vanishing mid-iteration (an in-flight ``put_json`` landing, a
concurrent prune winning the unlink -- ``FileNotFoundError`` on
stat/unlink skips the entry), and the in-process hit/miss statistics
are updated under a lock so the ``repro serve`` daemon's threaded
handlers never lose counts.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.errors import ReproError
from repro.exec.serialize import (
    SynthesisResult,
    result_from_dict,
    result_to_dict,
)
from repro.obs import metrics as _metrics
from repro.resilience import maybe_io_error, should_corrupt_cache

__all__ = ["CacheStats", "CacheUsage", "ResultCache"]

_CACHE_EVENTS = _metrics.counter(
    "repro_cache_events_total",
    "Result-cache events across every cache instance in the process.",
    ("event",),
)


@dataclass
class CacheStats:
    """Hit/miss accounting of one entry family of a cache instance.

    Instances are mutated only by their owning :class:`ResultCache`,
    which serializes every update under its lock; readers see a
    consistent (if momentarily stale) view without locking.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0
    write_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def __str__(self) -> str:
        return (
            f"{self.hits}/{self.lookups} hits, {self.stores} stores, "
            f"{self.invalid} invalid entries, "
            f"{self.write_errors} write errors"
        )


@dataclass(frozen=True)
class CacheUsage:
    """On-disk footprint of one cache directory."""

    entries: int
    total_bytes: int

    def __str__(self) -> str:
        return f"{self.entries} entries, {self.total_bytes} bytes"


class ResultCache:
    """Persistent map from design fingerprints to :class:`SynthesisResult`.

    Parameters
    ----------
    cache_dir:
        Directory holding the entries; created on first store.
    """

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self.cache_dir = Path(cache_dir)
        if self.cache_dir.exists() and not self.cache_dir.is_dir():
            raise ReproError(
                f"cache path {self.cache_dir} exists and is not a directory"
            )
        self.stats = CacheStats()
        self.stage_stats = CacheStats()
        # Serializes statistics updates; file operations themselves are
        # atomic (os.replace) or vanish-tolerant and need no lock, so
        # threaded servers never contend on I/O through this.
        self._stats_lock = threading.Lock()
        self.sweep_orphans()

    def _record(
        self,
        stats: CacheStats,
        hits: int = 0,
        misses: int = 0,
        stores: int = 0,
        invalid: int = 0,
        write_errors: int = 0,
    ) -> None:
        """Apply one update to ``stats`` atomically.

        The single funnel for cache accounting, which makes it the one
        place to mirror events into the process-global registry (the
        ``/metrics`` view, aggregated across families and instances).
        """
        with self._stats_lock:
            stats.hits += hits
            stats.misses += misses
            stats.stores += stores
            stats.invalid += invalid
            stats.write_errors += write_errors
        for event, count in (  # registry mirror, outside our lock
            ("hit", hits),
            ("miss", misses),
            ("store", stores),
            ("invalid", invalid),
            ("write_error", write_errors),
        ):
            if count:
                _CACHE_EVENTS.inc(count, event=event)

    def stats_snapshot(self) -> Dict[str, int]:
        """One atomic cut of this instance's whole-result statistics.

        Reading ``cache.stats`` field by field can interleave with a
        concurrent ``_record`` and return, e.g., a hit count newer than
        the miss count beside it; payloads that report several fields
        together (the server's ``/v1/stats``) read through this.
        """
        with self._stats_lock:
            return {
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "stores": self.stats.stores,
                "invalid": self.stats.invalid,
                "write_errors": self.stats.write_errors,
            }

    def _path(self, key: str) -> Path:
        if not key or any(ch in key for ch in "/\\."):
            raise ReproError(f"invalid cache key {key!r}")
        return self.cache_dir / f"{key}.json"

    def _load(self, key: str) -> Dict[str, Any]:
        """Raw payload for ``key``; raises on any unreadable entry."""
        path = self._path(key)
        payload = json.loads(path.read_text(encoding="utf-8"))
        # Injection point ``cache.corrupt``: an existing entry decodes
        # to garbage, taking exactly the real-corruption path (invalid
        # miss -> re-solve -> overwrite). No-op without a FaultPlan.
        if should_corrupt_cache(key):
            raise ValueError(f"cache entry {key!r} corrupted (injected)")
        if not isinstance(payload, dict):
            raise ValueError(f"cache entry {key!r} is not a JSON object")
        return payload

    def _touch(self, key: str) -> None:
        """Refresh the entry's mtime so :meth:`prune` evicts true LRU."""
        try:
            os.utime(self._path(key))
        except OSError:  # pragma: no cover - best-effort bookkeeping
            pass

    def get(self, key: str) -> Optional[SynthesisResult]:
        """The cached result for ``key``, or ``None`` on a miss.

        Unreadable or format-incompatible entries count as misses (and
        are reported in :attr:`stats`), never as errors: a cache must
        degrade to recomputation. Malformed *keys* are still errors --
        they indicate a caller bug, not a degraded cache.
        """
        self._path(key)  # reject malformed keys before the miss handling
        try:
            result = result_from_dict(self._load(key))
        except FileNotFoundError:
            self._record(self.stats, misses=1)
            return None
        # ValueError covers UnicodeDecodeError (binary garbage in the
        # file) and any json.JSONDecodeError not already subsumed by it:
        # a corrupted or truncated entry is a miss to re-solve and
        # overwrite, never an error.
        except (OSError, ValueError, ReproError):
            self._record(self.stats, misses=1, invalid=1)
            return None
        self._record(self.stats, hits=1)
        self._touch(key)
        return result

    def get_json(self, key: str) -> Optional[Dict[str, Any]]:
        """A generic JSON entry for ``key``, or ``None`` on a miss.

        Format validation is the caller's job (per-stage entries carry
        their own ``format`` field); unreadable entries degrade to
        misses exactly as whole-result entries do.
        """
        self._path(key)  # reject malformed keys before the miss handling
        try:
            payload = self._load(key)
        except FileNotFoundError:
            self._record(self.stage_stats, misses=1)
            return None
        except (OSError, ValueError):
            self._record(self.stage_stats, misses=1, invalid=1)
            return None
        self._record(self.stage_stats, hits=1)
        self._touch(key)
        return payload

    def put(self, key: str, result: SynthesisResult) -> None:
        """Store ``result`` under ``key`` atomically."""
        self._write(key, result_to_dict(result), self.stats)

    def put_json(self, key: str, payload: Dict[str, Any]) -> None:
        """Store a generic JSON entry under ``key`` atomically.

        Writes are best-effort: a transient :class:`OSError` (disk
        squeeze, permission hiccup, the ``io.transient`` fault point)
        is retried once, and a write that still fails is *swallowed* --
        counted in :attr:`stats` as a ``write_error`` -- because a
        cache that cannot persist must degrade to recomputation, never
        take the solve that produced the value down with it.
        Serialization errors (unencodable payloads) still raise: they
        are caller bugs, not degraded storage.
        """
        self._write(key, payload, self.stage_stats)

    def _write(self, key: str, payload: Dict[str, Any], stats: CacheStats) -> None:
        path = self._path(key)
        encoded = json.dumps(payload, sort_keys=True, indent=None)
        for attempt in range(2):
            try:
                maybe_io_error(f"{key}:a{attempt}")
                self.cache_dir.mkdir(parents=True, exist_ok=True)
                fd, tmp_name = tempfile.mkstemp(
                    dir=self.cache_dir, prefix=".tmp-", suffix=".json"
                )
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as handle:
                        handle.write(encoded)
                    os.replace(tmp_name, path)
                except BaseException:
                    try:
                        os.unlink(tmp_name)
                    except OSError:
                        pass
                    raise
            except OSError:
                continue
            self._record(stats, stores=1)
            return
        self._record(stats, write_errors=1)

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def keys(self) -> Iterator[str]:
        """Keys of every entry currently on disk.

        Only names that are valid cache keys are yielded: orphaned temp
        files (".tmp-*" from a hard-killed writer) and foreign JSON
        files someone dropped into the directory (e.g. "report.v2.json",
        whose stem ``_path`` would reject) are invisible rather than
        poisoning ``usage``/``prune``/``clear``.
        """
        if not self.cache_dir.is_dir():
            return
        for entry in sorted(self.cache_dir.glob("*.json")):
            if entry.name.startswith("."):
                continue
            if any(ch in entry.stem for ch in "/\\."):
                continue
            yield entry.stem

    def _entry_files(self):
        """Every managed entry file: ``.json`` entries and ``.npz``
        tensor sidecars (see
        :meth:`repro.pipeline.store.ArtifactStore.put_arrays`), with
        the same foreign-file filtering as :meth:`keys`."""
        if not self.cache_dir.is_dir():
            return
        for pattern in ("*.json", "*.npz"):
            for entry in sorted(self.cache_dir.glob(pattern)):
                if entry.name.startswith("."):
                    continue
                if any(ch in entry.stem for ch in "/\\."):
                    continue
                yield entry

    # Temp files older than this are assumed orphaned: no healthy
    # writer holds a mkstemp file open for an hour.
    ORPHAN_TMP_AGE_S = 3600.0

    def sweep_orphans(self, max_age_s: Optional[float] = None) -> int:
        """Delete orphaned ``.tmp-*`` files left by hard-killed writers.

        :meth:`put_json` unlinks its temp file on every failure path it
        can see, but a writer killed outright (a SIGKILLed CLI run or
        server) leaves its temp file behind, invisible to
        :meth:`keys`/:meth:`prune` and accumulating forever. The sweep
        runs on construction and before :meth:`prune`, removing temp
        files older than ``max_age_s`` (default :attr:`ORPHAN_TMP_AGE_S`);
        the age guard keeps it from racing a *live* writer's in-flight
        temp file in a shared directory. Returns the number of entries
        removed.
        """
        if max_age_s is None:
            max_age_s = self.ORPHAN_TMP_AGE_S
        if not self.cache_dir.is_dir():
            return 0
        cutoff = time.time() - max_age_s
        removed = 0
        for entry in list(self.cache_dir.glob(".tmp-*")):
            try:
                if entry.stat().st_mtime <= cutoff:
                    entry.unlink()
                    removed += 1
            except OSError:  # vanished mid-walk or unremovable: skip
                continue
        return removed

    def clear(self) -> int:
        """Delete every entry (JSON and ``.npz`` sidecars); returns the
        number of entries removed."""
        removed = 0
        for path in list(self._entry_files()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def usage(self) -> CacheUsage:
        """Entry/sidecar count and total bytes currently on disk.

        Safe against concurrent writers and pruners: an entry that
        vanishes between the directory walk and its ``stat`` (a
        ``FileNotFoundError``, e.g. an in-flight ``put_json`` replacing
        it or a concurrent ``prune`` evicting it) is simply skipped.
        """
        entries = 0
        total = 0
        for path in self._entry_files():
            try:
                total += path.stat().st_size
                entries += 1
            except OSError:  # vanished mid-walk: skip, never raise
                pass
        return CacheUsage(entries=entries, total_bytes=total)

    def prune(self, max_bytes: int) -> int:
        """Evict least-recently-used entries until the cache fits.

        Entries (JSON files and ``.npz`` sidecars alike) are removed
        oldest-mtime-first (hits refresh mtime, so recently-used entries
        survive) until the remaining footprint is at most ``max_bytes``.
        Returns the number of entries removed.

        Like :meth:`usage`, pruning tolerates concurrent access: files
        that vanish between the walk and their ``stat``/``unlink``
        (``FileNotFoundError`` from a racing writer or pruner) are
        skipped, so ``repro serve``'s stats endpoint and in-flight jobs
        can share a directory with maintenance commands.
        """
        if max_bytes < 0:
            raise ReproError(f"max_bytes must be >= 0, got {max_bytes}")
        self.sweep_orphans()
        aged = []
        total = 0
        for path in self._entry_files():
            try:
                stat = path.stat()
            except OSError:  # vanished mid-walk: skip, never raise
                continue
            aged.append((stat.st_mtime, str(path), path, stat.st_size))
            total += stat.st_size
        aged.sort(key=lambda item: (item[0], item[1]))
        removed = 0
        for _mtime, _name, path, size in aged:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultCache {self.cache_dir} ({self.stats})>"
