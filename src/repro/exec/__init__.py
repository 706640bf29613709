"""Sweep/synthesis execution engine: result caching over serial loops.

The paper's design-space studies solve many independent synthesis
points. This package turns those studies from recompute-everything
loops into cached executions:

* :mod:`~repro.exec.engine` -- the :class:`ExecutionEngine` (a cache
  in front of in-order, in-process solves; latency replays go through
  the pipeline's cached replay stage),
* :mod:`~repro.exec.cache` -- the content-addressed on-disk
  :class:`ResultCache`,
* :mod:`~repro.exec.fingerprint` -- canonical hashing of traces,
  configurations and tasks,
* :mod:`~repro.exec.serialize` -- the JSON-portable
  :class:`SynthesisResult` record shared by the cache, the CLI and the
  report layer.

Contracts
---------
* **Content addressing.** A solved point is keyed by
  :func:`~repro.exec.fingerprint.task_key` -- a canonical SHA-256 over
  (trace fingerprint, full synthesis configuration, window,
  application name), schema-versioned via
  :data:`~repro.exec.fingerprint.CACHE_SCHEMA_VERSION`. A changed
  input can never alias a cached result.
* **Caching.** Whole results persist as ``<key>.json`` entries in the
  :class:`ResultCache` directory (shared with the pipeline's per-stage
  entries; one ``prune``/``usage`` covers both). Writes are atomic,
  corrupt entries degrade to misses, hits refresh mtime so pruning is
  true LRU, and the cache is safe under concurrent threads and
  processes.
* **Determinism.** Results come back in task order and are
  byte-identical whether a point was solved or read from the cache.
"""

from repro.exec.cache import CacheStats, CacheUsage, ResultCache
from repro.exec.engine import ExecutionEngine, SynthesisTask
from repro.exec.fingerprint import CACHE_SCHEMA_VERSION, task_key, trace_fingerprint
from repro.exec.serialize import (
    SynthesisResult,
    result_from_dict,
    result_to_dict,
)

__all__ = [
    "ExecutionEngine",
    "SynthesisTask",
    "ResultCache",
    "CacheStats",
    "CacheUsage",
    "SynthesisResult",
    "result_to_dict",
    "result_from_dict",
    "trace_fingerprint",
    "task_key",
    "CACHE_SCHEMA_VERSION",
]
