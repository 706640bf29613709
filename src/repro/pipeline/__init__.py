"""The staged synthesis pipeline (paper Fig. 3 as a first-class object).

Historically every front end -- :class:`~repro.core.synthesis.CrossbarSynthesizer`,
the :class:`~repro.exec.engine.ExecutionEngine` sweeps/batches, the
scenario suite runner and the analysis sweep helpers -- re-drove the
collect/window/conflict/bind flow monolithically, and caching existed
only at whole-result granularity. This package factors the flow into
typed stage artifacts with content-addressed fingerprints
(:mod:`~repro.pipeline.artifacts`), a generalized per-stage artifact
store (:mod:`~repro.pipeline.store`) and one
:class:`~repro.pipeline.runner.PipelineRunner` every front end drives,
so intermediate artifacts are reused wherever their fingerprints match:
across the points of a sweep, across the scenarios of a suite, and
across edits of a suite (incremental re-synthesis).

Contracts
---------
* **Content addressing.** Every stage output's fingerprint is a
  SHA-256 over its upstream artifacts' fingerprints plus *only* the
  configuration fields that stage reads (schema-versioned via
  :data:`STAGE_SCHEMA_VERSION`). Fingerprints are derivable without
  executing (:meth:`~repro.pipeline.runner.PipelineRunner.design_fingerprint`),
  which is what lets the ``repro serve`` daemon content-address a
  request before committing solver work.
* **Caching.** Live artifacts memoize in the
  :class:`~repro.pipeline.store.ArtifactStore`'s LRU; JSON-serializable
  stages (bindings, replays) and windowed tensors (``.npz`` sidecars)
  additionally persist through a
  :class:`~repro.exec.cache.ResultCache` directory shared with
  whole-result entries. A stale hit is impossible: any input change
  changes the fingerprint.
* **Determinism.** Stages are pure functions of their fingerprinted
  inputs. A warm rerun reproduces a cold run byte for byte, and the
  store may be driven from multiple threads (tallies and LRU
  operations are lock-protected).
"""

from repro.pipeline.artifacts import (
    STAGE_SCHEMA_VERSION,
    BindingArtifact,
    CollectedTraffic,
    ConflictArtifact,
    ReplayArtifact,
    WindowedAnalysis,
    stage_fingerprint,
)
from repro.pipeline.runner import (
    PipelineDesign,
    PipelineRunner,
    SideArtifacts,
    describe_stages,
    reset_shared_runner,
    shared_runner,
)
from repro.pipeline.store import ArtifactStore, StageCounters
from repro.pipeline.collect import SIMULATOR_SALT, CollectStage, TraceSource

__all__ = [
    "STAGE_SCHEMA_VERSION",
    "CollectedTraffic",
    "WindowedAnalysis",
    "ConflictArtifact",
    "BindingArtifact",
    "ReplayArtifact",
    "stage_fingerprint",
    "PipelineRunner",
    "PipelineDesign",
    "SideArtifacts",
    "shared_runner",
    "reset_shared_runner",
    "describe_stages",
    "ArtifactStore",
    "StageCounters",
    "SIMULATOR_SALT",
    "CollectStage",
    "TraceSource",
]
