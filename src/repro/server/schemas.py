"""Request/response schemas of the synthesis service.

Every job the ``repro serve`` daemon accepts is described by a small
frozen request record parsed (and fully validated) from the client's
JSON body by :func:`parse_job_request`. Validation failures raise
:class:`RequestError`, which the HTTP layer maps to a ``400`` response
with a JSON error body -- a malformed request must never reach the job
queue.

Each request kind knows its own **content address**
(:meth:`JobRequest.fingerprint`): a SHA-256 over the canonical JSON
encoding of the request's semantic fields (defaults filled in, key
order fixed). Two requests that would perform identical work therefore
carry identical fingerprints however their JSON was spelled, which is
the property the coalescer (:mod:`repro.server.coalesce`) keys on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.apps import APPLICATIONS, build_application
from repro.errors import ReproError
from repro.exec.fingerprint import canonical_json, sha256_hex
from repro.scenarios import SUITES, suite_from_dict

__all__ = [
    "REQUEST_SCHEMA_VERSION",
    "RequestError",
    "JobRequest",
    "DesignRequest",
    "SuiteRequest",
    "parse_job_request",
]

REQUEST_SCHEMA_VERSION = 1
"""Bump to invalidate request fingerprints on encoding changes."""

_POLICIES = ("union", "worst-case", "weighted")
# The request field stays for compatibility; the assignment DFS is the
# only solver, so it accepts one value.
_BACKENDS = ("assignment",)


class RequestError(ReproError):
    """A malformed or semantically invalid job request.

    Carries machine-readable ``details`` the HTTP layer returns in the
    400 response body next to the human-readable message.
    """

    def __init__(self, message: str, **details: Any) -> None:
        super().__init__(message)
        self.details: Dict[str, Any] = dict(details)


def _require_mapping(payload: Any) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise RequestError(
            f"job request must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _get_str(payload: Mapping[str, Any], key: str, default=None) -> Any:
    value = payload.get(key, default)
    if value is default:
        return default
    if not isinstance(value, str):
        raise RequestError(f"field {key!r} must be a string", field=key)
    return value


def _get_number(payload, key: str, default, *, lo=None, hi=None):
    value = payload.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(f"field {key!r} must be a number", field=key)
    if lo is not None and value < lo:
        raise RequestError(f"field {key!r} must be >= {lo}", field=key)
    if hi is not None and value > hi:
        raise RequestError(f"field {key!r} must be <= {hi}", field=key)
    return value


def _get_bool(payload, key: str, default: bool) -> bool:
    value = payload.get(key, default)
    if not isinstance(value, bool):
        raise RequestError(f"field {key!r} must be a boolean", field=key)
    return value


def _get_choice(payload, key: str, default: str, choices) -> str:
    value = _get_str(payload, key, default)
    if value not in choices:
        raise RequestError(
            f"field {key!r} must be one of {', '.join(choices)}",
            field=key,
            choices=list(choices),
        )
    return value


def _reject_unknown(payload: Mapping[str, Any], known) -> None:
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise RequestError(
            f"unknown request field(s): {', '.join(unknown)}",
            unknown_fields=unknown,
        )


@dataclass(frozen=True)
class JobRequest:
    """Common surface of every parsed job request."""

    kind: str = field(init=False, default="")

    def canonical(self) -> Dict[str, Any]:  # pragma: no cover - abstract
        """The semantic fields, defaults resolved, for fingerprinting."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Content address of this request (see module docstring)."""
        payload = {
            "schema": REQUEST_SCHEMA_VERSION,
            "kind": self.kind,
            "request": self.canonical(),
        }
        return sha256_hex(canonical_json(payload))

    def describe(self) -> str:  # pragma: no cover - abstract
        """One-line human-readable request summary."""
        raise NotImplementedError


@dataclass(frozen=True)
class DesignRequest(JobRequest):
    """Synthesize one application's crossbar (the ``repro design`` flow).

    ``window=None`` resolves to the application's recommended window at
    execution time -- the *resolved* window enters the fingerprint, so a
    request spelling the default explicitly coalesces with one omitting
    it.
    """

    app: str = ""
    window: Optional[int] = None
    threshold: float = 0.3
    maxtb: Optional[int] = 4
    backend: str = "assignment"

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", "design")

    def resolved_window(self) -> int:
        if self.window is not None:
            return int(self.window)
        return build_application(self.app).default_window

    def canonical(self) -> Dict[str, Any]:
        return {
            "app": self.app,
            "window": self.resolved_window(),
            "threshold": self.threshold,
            "maxtb": self.maxtb,
            "backend": self.backend,
        }

    def describe(self) -> str:
        return (
            f"design {self.app} (window {self.window or 'default'}, "
            f"threshold {self.threshold:g}, backend {self.backend})"
        )


@dataclass(frozen=True)
class SuiteRequest(JobRequest):
    """Run a scenario suite end to end (the ``repro scenarios run`` flow).

    ``suite`` names a built-in suite; server-side file paths are
    deliberately *not* accepted (a network client must not browse the
    server's filesystem) -- custom suites travel inline as the
    ``suite_payload`` JSON object produced by ``repro scenarios export``.
    """

    suite: str = ""
    suite_payload: Optional[str] = None
    """Inline suite as *canonical JSON text* -- hashable, and already
    key-order-normalized for fingerprinting."""
    policy: str = "union"
    min_weight: float = 0.5
    threshold: float = 0.3
    maxtb: Optional[int] = 4
    replay_latency: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", "suite")

    def suite_dict(self) -> Optional[Dict[str, Any]]:
        """The inline suite payload as a plain dict, or ``None``."""
        if self.suite_payload is None:
            return None
        return json.loads(self.suite_payload)

    def canonical(self) -> Dict[str, Any]:
        return {
            "suite": self.suite,
            "suite_payload": self.suite_dict(),
            "policy": self.policy,
            "min_weight": self.min_weight,
            "threshold": self.threshold,
            "maxtb": self.maxtb,
            "replay_latency": self.replay_latency,
        }

    def describe(self) -> str:
        name = self.suite or "(inline suite)"
        return (
            f"suite {name} (policy {self.policy}, "
            f"replay_latency {self.replay_latency})"
        )


def _parse_design(payload: Mapping[str, Any]) -> DesignRequest:
    _reject_unknown(
        payload, ("kind", "app", "window", "threshold", "maxtb", "backend")
    )
    app = _get_str(payload, "app")
    if not app:
        raise RequestError("design request needs an 'app' field", field="app")
    if app not in APPLICATIONS:
        raise RequestError(
            f"unknown application {app!r}",
            field="app",
            choices=sorted(APPLICATIONS),
        )
    window = _get_number(payload, "window", None, lo=1)
    threshold = _get_number(payload, "threshold", 0.3, lo=0.0, hi=0.5)
    maxtb = _get_number(payload, "maxtb", 4, lo=0)
    return DesignRequest(
        app=app,
        window=int(window) if window is not None else None,
        threshold=float(threshold),
        maxtb=int(maxtb) or None,
        backend=_get_choice(payload, "backend", "assignment", _BACKENDS),
    )


def _parse_suite(payload: Mapping[str, Any]) -> SuiteRequest:
    _reject_unknown(
        payload,
        ("kind", "suite", "suite_payload", "policy", "min_weight",
         "threshold", "maxtb", "replay_latency"),
    )
    suite = _get_str(payload, "suite", "")
    suite_payload = payload.get("suite_payload")
    if bool(suite) == (suite_payload is not None):
        raise RequestError(
            "suite request needs exactly one of 'suite' (a built-in name) "
            "or 'suite_payload' (an exported suite object)",
            field="suite",
        )
    if suite and suite not in SUITES:
        raise RequestError(
            f"unknown suite {suite!r}; server-side paths are not accepted, "
            f"send custom suites inline via 'suite_payload'",
            field="suite",
            choices=sorted(SUITES),
        )
    frozen_payload: Optional[str] = None
    if suite_payload is not None:
        if not isinstance(suite_payload, Mapping):
            raise RequestError(
                "field 'suite_payload' must be a suite JSON object",
                field="suite_payload",
            )
        try:
            suite_from_dict(suite_payload)  # full structural validation
        except ReproError as error:
            raise RequestError(
                f"invalid inline suite: {error}", field="suite_payload"
            ) from error
        # Freeze through canonical JSON so the request stays hashable
        # and its fingerprint is independent of client key order.
        frozen_payload = canonical_json(dict(suite_payload))
    threshold = _get_number(payload, "threshold", 0.3, lo=0.0, hi=0.5)
    maxtb = _get_number(payload, "maxtb", 4, lo=0)
    return SuiteRequest(
        suite=suite,
        suite_payload=frozen_payload,
        policy=_get_choice(payload, "policy", "union", _POLICIES),
        min_weight=float(
            _get_number(payload, "min_weight", 0.5, lo=0.0, hi=1.0)
        ),
        threshold=float(threshold),
        maxtb=int(maxtb) or None,
        replay_latency=_get_bool(payload, "replay_latency", False),
    )


_PARSERS = {
    "design": _parse_design,
    "suite": _parse_suite,
}


def parse_job_request(payload: Any) -> JobRequest:
    """Parse and validate a client JSON body into a job request.

    Raises :class:`RequestError` (HTTP 400) on anything malformed:
    non-object bodies, unknown ``kind``, unknown fields, out-of-range
    values, unknown applications/suites, structurally invalid inline
    suites.
    """
    payload = _require_mapping(payload)
    kind = _get_str(payload, "kind")
    if not kind:
        raise RequestError(
            "job request needs a 'kind' field",
            field="kind",
            choices=sorted(_PARSERS),
        )
    parser = _PARSERS.get(kind)
    if parser is None:
        raise RequestError(
            f"unknown job kind {kind!r}",
            field="kind",
            choices=sorted(_PARSERS),
        )
    return parser(payload)
