"""Canonical content hashing for cache keys.

A sweep point is fully determined by three inputs: the traffic trace
(what the application did on the full crossbar), the synthesis
configuration, and the analysis window. Hashing a canonical encoding of
those three gives a content-addressed key that is stable across
processes, Python versions and dict orderings -- the property the
on-disk cache and the cross-process tests rely on.

``PYTHONHASHSEED`` does not affect these digests: everything is encoded
through sorted, explicit JSON before hashing with SHA-256.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Optional

from repro.core.spec import SynthesisConfig
from repro.exec.serialize import config_to_dict
from repro.traffic.trace import TrafficTrace

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "canonical_json",
    "sha256_hex",
    "trace_fingerprint",
    "task_key",
]

CACHE_SCHEMA_VERSION = 1
"""Bump to invalidate every cached result when the encoding changes."""


def canonical_json(payload: Any) -> str:
    """Serialize ``payload`` deterministically (sorted keys, no spaces)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def sha256_hex(text: str) -> str:
    """Hex SHA-256 digest of ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trace_fingerprint(trace: TrafficTrace) -> str:
    """Content hash of a traffic trace.

    Covers the platform shape, the simulation length and every record
    field that influences synthesis (timestamps, endpoints, burst,
    criticality). Records are hashed in the trace's canonical (sorted)
    order, so equal traces produce equal fingerprints regardless of the
    record order they were built from.

    The digest is memoized on the trace object: traces are immutable,
    and sweep drivers fingerprint the same trace once per ``run_sweep``
    call, so repeated hashing of a large record list is pure waste.
    """
    memoized = trace.__dict__.get("_fingerprint")
    if memoized is not None:
        return memoized
    digest = hashlib.sha256()
    header = canonical_json(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "num_initiators": trace.num_initiators,
            "num_targets": trace.num_targets,
            "total_cycles": trace.total_cycles,
            "num_records": len(trace),
        }
    )
    digest.update(header.encode("utf-8"))
    for record in trace.records:
        row = (
            record.initiator,
            record.target,
            record.kind.value,
            record.burst,
            record.issue,
            record.it_grant,
            record.it_release,
            record.service_start,
            record.service_end,
            record.ti_grant,
            record.ti_release,
            record.complete,
            int(record.critical),
        )
        digest.update(canonical_json(row).encode("utf-8"))
    result = digest.hexdigest()
    trace.__dict__["_fingerprint"] = result
    return result


def task_key(
    trace_digest: str,
    config: SynthesisConfig,
    window_size: int,
    application: Optional[str] = None,
) -> str:
    """Cache key of one synthesis point.

    ``trace_digest`` is a precomputed :func:`trace_fingerprint` (sweeps
    hash their shared trace once, not once per point). ``application``
    tags the key with the descriptor name when one is known, so traces
    from differently-named applications never collide even if their
    records coincide.
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "trace": trace_digest,
        "config": config_to_dict(config),
        "window_size": int(window_size),
        "application": application or "",
    }
    return sha256_hex(canonical_json(payload))
