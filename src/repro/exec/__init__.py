"""Sweep/synthesis execution engine: result caching over serial loops.

The paper's design-space studies solve many independent synthesis
points. This package turns those studies from recompute-everything
loops into cached executions:

* :mod:`~repro.exec.engine` -- the :class:`ExecutionEngine` (one
  lookup-or-solve step in front of in-order, in-process solves on the
  one pipeline runner every caller shares; latency replays go through
  that runner's cached replay stage),
* :mod:`~repro.exec.cache` -- the content-addressed on-disk
  :class:`ResultCache`,
* :mod:`~repro.exec.fingerprint` -- canonical hashing of traces and
  the encoding stage fingerprints are built from,
* :mod:`~repro.exec.serialize` -- the JSON-portable
  :class:`SynthesisResult` record shared by the cache, the CLI and the
  report layer.

Contracts
---------
* **Content addressing.** A solved point is keyed by its design
  fingerprint (:meth:`~repro.pipeline.runner.PipelineRunner.design_fingerprint`),
  derived from the trace fingerprint, the effective window and each
  stage's configuration slice without executing anything -- the same
  address the ``repro serve`` daemon returns. A changed input that any
  stage reads can never alias a cached result; the nominal
  ``config.window_size`` is read by no stage, so a hit carries the
  request's configuration.
* **Caching.** :meth:`ExecutionEngine.lookup_or_solve` is the only
  reader and writer of whole results, and the one tally of their
  lookups (the ``design`` stage): memory first, then
  ``<design fingerprint>.json`` entries in the :class:`ResultCache`
  directory (shared with the pipeline's per-stage entries; one
  ``prune``/``usage`` covers both). Writes are atomic,
  corrupt entries degrade to misses, hits refresh mtime so pruning is
  true LRU, and the cache is safe under concurrent threads and
  processes.
* **Determinism.** Results come back in task order and are
  byte-identical whether a point was solved or read from the cache.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.exec.cache": ("CacheStats", "CacheUsage", "ResultCache"),
        "repro.exec.engine": ("ExecutionEngine", "SynthesisTask"),
        "repro.exec.fingerprint": ("CACHE_SCHEMA_VERSION", "trace_fingerprint"),
        "repro.exec.serialize": (
            "SynthesisResult",
            "result_from_dict",
            "result_to_dict",
        ),
    },
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
    "CACHE_SCHEMA_VERSION",
]
