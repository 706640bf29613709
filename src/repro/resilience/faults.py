"""Seeded, deterministic fault injection.

A :class:`FaultPlan` names a set of **injection points** -- places in
the platform where a failure can be provoked on purpose -- and decides,
as a *pure function* of ``(seed, point, key)``, whether a given arrival
at that point fires. Purity is the whole design: pool workers, job
threads and the parent process all reach identical decisions without
any shared mutable state, so a chaos run is reproducible from its seed
alone and byte-identical assertions against a fault-free run are
meaningful.

Known injection points
----------------------
``worker.crash``
    A pool worker hard-exits (``os._exit``) when it picks up a matching
    task, producing a *real* ``BrokenProcessPool`` in the parent -- the
    exact failure the engine's retry/rebuild/degrade ladder exists for.
``cache.corrupt``
    A :class:`~repro.exec.cache.ResultCache` read treats the entry as
    corrupted (the same path a truncated or garbage file takes), so the
    caller must re-solve and overwrite.
``solver.slow``
    The assignment solver's search sleeps ``delay_s`` per matching node
    (keyed by node ordinal), stretching solve latency deterministically.
``io.transient``
    A cache write raises :class:`OSError` on matching attempts,
    exercising the write-retry + degrade-to-recomputation path.

Installation
------------
``install_plan(plan)`` activates a plan process-wide and (by default)
exports it to the ``REPRO_FAULTS`` environment variable, so pool
workers inherit it under ``fork`` (module global) *and* ``spawn``
(lazy env read), and a ``repro serve`` daemon started with
``--faults`` passes it to every job. ``clear_plan()`` removes both.

Decisions are keyed: call sites pass a stable key (task index plus
attempt number, a cache key, a node counter) and rules may restrict
themselves to matching keys via fnmatch patterns -- ``"*:a0"`` fires
only on first attempts, which is how a chaos test provokes "crash
once, recover on retry".
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs import metrics as _metrics

__all__ = [
    "FAULT_POINTS",
    "FAULTS_ENV_VAR",
    "FaultRule",
    "FaultPlan",
    "InjectedFault",
    "install_plan",
    "install_from_spec",
    "active_plan",
    "clear_plan",
    "should_inject",
    "maybe_crash_worker",
    "should_corrupt_cache",
    "solver_slowdown",
    "maybe_io_error",
    "fault_summary",
]

FAULTS_ENV_VAR = "REPRO_FAULTS"

FAULT_POINTS = (
    "worker.crash",
    "cache.corrupt",
    "solver.slow",
    "io.transient",
)

_WORKER_EXIT_CODE = 70  # EX_SOFTWARE: an induced, not accidental, death

_FAULTS_FIRED = _metrics.counter(
    "repro_faults_fired_total",
    "Injected faults that actually fired, by injection point.",
    ("point",),
)


class InjectedFault(OSError):
    """An error raised on purpose by the fault-injection framework.

    Subclasses :class:`OSError` so injected transient I/O failures take
    exactly the handling paths a real one would -- tolerant callers must
    not need to know about injection to survive it.
    """


@dataclass(frozen=True)
class FaultRule:
    """How one injection point misbehaves.

    Attributes
    ----------
    rate:
        Probability in ``[0, 1]`` that a matching arrival fires,
        decided by a seeded hash of the arrival's key (never by a live
        RNG -- see module docstring).
    match:
        Optional fnmatch patterns; when given, only keys matching at
        least one pattern are considered at all.
    max_hits:
        Per-process cap on how many times this rule fires (``None`` =
        unlimited). The cap is process-local state, so use it for
        single-process determinism (server tests), not for pool-worker
        coordination -- workers each count their own hits.
    delay_s:
        For delay-style points (``solver.slow``): seconds to sleep per
        firing arrival.
    """

    rate: float = 1.0
    match: Optional[Tuple[str, ...]] = None
    max_hits: Optional[int] = None
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(
                f"fault rate must lie in [0, 1], got {self.rate}"
            )
        if self.max_hits is not None and self.max_hits < 0:
            raise ConfigurationError("max_hits must be >= 0 or None")
        if self.delay_s < 0:
            raise ConfigurationError("delay_s must be >= 0")
        if self.match is not None:
            object.__setattr__(self, "match", tuple(self.match))

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"rate": self.rate}
        if self.match is not None:
            payload["match"] = list(self.match)
        if self.max_hits is not None:
            payload["max_hits"] = self.max_hits
        if self.delay_s:
            payload["delay_s"] = self.delay_s
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultRule":
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"fault rule must be an object, got {type(payload).__name__}"
            )
        unknown = set(payload) - {"rate", "match", "max_hits", "delay_s"}
        if unknown:
            raise ConfigurationError(
                f"unknown fault rule field(s): {', '.join(sorted(unknown))}"
            )
        match = payload.get("match")
        return cls(
            rate=float(payload.get("rate", 1.0)),
            match=tuple(match) if match is not None else None,
            max_hits=payload.get("max_hits"),
            delay_s=float(payload.get("delay_s", 0.0)),
        )


def _decision_fraction(seed: int, point: str, key: str) -> float:
    """Uniform-in-[0,1) decision value, pure in (seed, point, key)."""
    digest = hashlib.sha256(
        f"{seed}:{point}:{key}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass
class FaultPlan:
    """A named set of fault rules plus the seed that drives decisions.

    The plan also keeps per-point *fired* tallies (process-local,
    thread-safe) so the server's ``/v1/stats`` can report what chaos
    actually happened.
    """

    seed: int = 0
    rules: Dict[str, FaultRule] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for point in self.rules:
            if point not in FAULT_POINTS:
                raise ConfigurationError(
                    f"unknown fault point {point!r}; known points: "
                    f"{', '.join(FAULT_POINTS)}"
                )
        self._fired: Dict[str, int] = {}
        self._lock = threading.Lock()

    # -- decisions ----------------------------------------------------

    def rule(self, point: str) -> Optional[FaultRule]:
        return self.rules.get(point)

    def decide(self, point: str, key: str) -> bool:
        """Whether an arrival at ``point`` with ``key`` fires.

        Pure in ``(seed, point, key)`` except for the ``max_hits``
        process-local cap; firing arrivals are tallied.
        """
        rule = self.rules.get(point)
        if rule is None:
            return False
        if rule.match is not None and not any(
            fnmatch.fnmatchcase(key, pattern) for pattern in rule.match
        ):
            return False
        if _decision_fraction(self.seed, point, key) >= rule.rate:
            return False
        with self._lock:
            if (
                rule.max_hits is not None
                and self._fired.get(point, 0) >= rule.max_hits
            ):
                return False
            self._fired[point] = self._fired.get(point, 0) + 1
        # Registry mirror (process-global, monotonic); the per-plan
        # tallies above stay authoritative for fault_summary() -- tests
        # assert them per plan, which a global counter cannot provide.
        _FAULTS_FIRED.inc(point=point)
        return True

    def fired(self) -> Dict[str, int]:
        """Per-point fired tallies (a consistent copy)."""
        with self._lock:
            return dict(self._fired)

    # -- (de)serialization --------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "rules": {
                point: rule.to_dict()
                for point, rule in sorted(self.rules.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"fault plan must be an object, got {type(payload).__name__}"
            )
        unknown = set(payload) - {"seed", "rules"}
        if unknown:
            raise ConfigurationError(
                f"unknown fault plan field(s): {', '.join(sorted(unknown))}"
            )
        rules = payload.get("rules", {})
        if not isinstance(rules, Mapping):
            raise ConfigurationError("fault plan 'rules' must be an object")
        return cls(
            seed=int(payload.get("seed", 0)),
            rules={
                point: FaultRule.from_dict(rule)
                for point, rule in rules.items()
            },
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"fault plan is not valid JSON: {error}"
            ) from error
        return cls.from_dict(payload)


# The process-wide active plan. ``None`` means "not yet resolved": the
# first consultation falls back to the environment, which is how spawn
# workers and subprocesses inherit a plan without explicit plumbing.
_ACTIVE: Optional[FaultPlan] = None
_RESOLVED = False
_STATE_LOCK = threading.Lock()


def install_plan(
    plan: Optional[FaultPlan], export_env: bool = True
) -> Optional[FaultPlan]:
    """Activate ``plan`` process-wide (``None`` deactivates).

    With ``export_env`` (the default) the plan is also written to the
    ``REPRO_FAULTS`` environment variable so child processes -- pool
    workers under any start method, subprocess smoke runs -- inherit
    it. Returns the installed plan.
    """
    global _ACTIVE, _RESOLVED
    with _STATE_LOCK:
        _ACTIVE = plan
        _RESOLVED = True
        if export_env:
            if plan is None:
                os.environ.pop(FAULTS_ENV_VAR, None)
            else:
                os.environ[FAULTS_ENV_VAR] = plan.to_json()
    return plan


def install_from_spec(spec: str, export_env: bool = True) -> FaultPlan:
    """Install a plan from a JSON string or a path to a JSON file.

    The ``repro serve --faults`` flag lands here; a spec starting with
    ``{`` is parsed inline, anything else is read as a file path.
    """
    text = spec
    if not spec.lstrip().startswith("{"):
        try:
            with open(spec, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            raise ConfigurationError(
                f"cannot read fault plan file {spec!r}: {error}"
            ) from error
    plan = FaultPlan.from_json(text)
    install_plan(plan, export_env=export_env)
    return plan


def clear_plan() -> None:
    """Deactivate fault injection and drop the env export."""
    install_plan(None)


def active_plan() -> Optional[FaultPlan]:
    """The process's active plan, resolving from the env on first use."""
    global _ACTIVE, _RESOLVED
    if _RESOLVED:
        return _ACTIVE
    with _STATE_LOCK:
        if not _RESOLVED:
            spec = os.environ.get(FAULTS_ENV_VAR)
            _ACTIVE = FaultPlan.from_json(spec) if spec else None
            _RESOLVED = True
    return _ACTIVE


def should_inject(point: str, key: str) -> bool:
    """Whether the active plan fires ``point`` for ``key`` (False when
    no plan is installed -- the hot-path cost is one None check)."""
    plan = active_plan()
    if plan is None:
        return False
    return plan.decide(point, key)


# -- call-site helpers (one per injection point) ----------------------


def maybe_crash_worker(key: str) -> None:
    """Hard-exit the current process if ``worker.crash`` fires.

    Called at pool-worker task entry; ``os._exit`` (no cleanup, no
    exception) is what a segfault or OOM kill looks like from the
    parent: a dead worker and a :class:`BrokenProcessPool`.
    """
    if should_inject("worker.crash", key):
        os._exit(_WORKER_EXIT_CODE)


def should_corrupt_cache(key: str) -> bool:
    """Whether a cache read of ``key`` must be treated as corrupted."""
    return should_inject("cache.corrupt", key)


def solver_slowdown() -> Optional[Callable[[str], None]]:
    """The ``solver.slow`` hook for one solve, or ``None`` when disarmed.

    Read once per solve, so a solve without a ``solver.slow`` rule does
    no per-node work. The hook sleeps the rule's ``delay_s`` for every
    node key the plan fires on.
    """
    plan = active_plan()
    rule = plan.rule("solver.slow") if plan is not None else None
    if rule is None:
        return None

    def slow(key: str) -> None:
        if plan.decide("solver.slow", key) and rule.delay_s > 0:
            time.sleep(rule.delay_s)

    return slow


def maybe_io_error(key: str) -> None:
    """Raise an injected transient :class:`OSError` if ``io.transient``
    fires for ``key`` (call sites include the attempt number in the
    key, so retries re-decide rather than re-fire unconditionally)."""
    if should_inject("io.transient", key):
        raise InjectedFault(f"injected transient I/O failure ({key})")


def fault_summary() -> Optional[Dict[str, Any]]:
    """Observability payload for ``/v1/stats``: the active plan plus
    its per-point fired tallies, or ``None`` when injection is off."""
    plan = active_plan()
    if plan is None:
        return None
    return {
        "seed": plan.seed,
        "points": sorted(plan.rules),
        "fired": plan.fired(),
    }
