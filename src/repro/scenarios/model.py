"""The scenario model: named workloads and suites with JSON round-trip.

A :class:`Scenario` binds a *traffic source* -- a synthetic profile
(``profile:<name>``) or a registered application (``app:<name>``) -- to
the parameters that make it a concrete use-case: generator/builder
parameters, a load scale, a deployment weight (how often the use-case
runs in the field, feeding the ``weighted`` merge policy), an analysis
window and QoS constraints (critical targets). Scenarios build their
:class:`~repro.traffic.trace.TrafficTrace` deterministically, so the
execution engine's content-addressed cache stays valid across processes
and sessions.

A :class:`ScenarioSuite` is an ordered, uniquely-named collection of
scenarios -- the unit the runner synthesizes one robust crossbar for.
Suites round-trip through JSON (:func:`suite_to_dict` /
:func:`suite_from_dict`, :func:`save_suite` / :func:`load_suite`) so
they can be committed, diffed and shipped between machines.
"""

from __future__ import annotations

import importlib
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.traffic.trace import TrafficTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.collect import CollectStage

__all__ = [
    "PROFILES",
    "SUITE_FORMAT",
    "Scenario",
    "ScenarioSuite",
    "suite_to_dict",
    "suite_from_dict",
    "save_suite",
    "load_suite",
]

SUITE_FORMAT = "repro-scenario-suite-v1"

PROFILES = {
    "burst": (
        "repro.traffic.synthetic",
        "SyntheticTrafficConfig",
        "generate_synthetic_trace",
    ),
    "hotspot": (
        "repro.traffic.profiles",
        "HotspotTrafficConfig",
        "generate_hotspot_trace",
    ),
    "poisson": (
        "repro.traffic.profiles",
        "PoissonTrafficConfig",
        "generate_poisson_trace",
    ),
    "pipeline": (
        "repro.traffic.profiles",
        "PipelineTrafficConfig",
        "generate_pipeline_trace",
    ),
}
"""Synthetic traffic profiles addressable as ``profile:<name>``: the
module, config class and generator of each, resolved by name only when
a trace is built -- a suite whose traces are all stored never imports a
generator."""


def _freeze(value: Any) -> Any:
    """JSON-compatible deep-conversion of lists to tuples (configs want
    hashable tuple fields; JSON hands back lists)."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


@dataclass(frozen=True)
class Scenario:
    """One named use-case of the chip.

    Attributes
    ----------
    name:
        Unique identifier inside a suite; also tags cache keys.
    source:
        ``"profile:<name>"`` (see :data:`PROFILES`) or ``"app:<name>"``
        (a :mod:`repro.apps` registry entry).
    params:
        Keyword arguments for the profile config or application builder.
    load_scale:
        Offered-load multiplier. Profiles scale their generator
        (:func:`~repro.traffic.profiles.scaled_config`); application
        traces support down-scaling via deterministic packet thinning.
    weight:
        Relative deployment frequency, consumed by the ``weighted``
        conflict-merge policy.
    window_size:
        Analysis window override; ``None`` uses the profile default
        (1000 cycles) or the application's recommended window.
    critical_targets:
        QoS annotation forwarded to profile generators: targets whose
        streams carry real-time traffic in this scenario.
    description:
        Free-form documentation.
    """

    name: str
    source: str
    params: Mapping[str, Any] = field(default_factory=dict)
    load_scale: float = 1.0
    weight: float = 1.0
    window_size: Optional[int] = None
    critical_targets: Tuple[int, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        kind, _, rest = self.source.partition(":")
        if kind not in ("profile", "app") or not rest:
            raise ConfigurationError(
                f"scenario source must be 'profile:<name>' or 'app:<name>', "
                f"got {self.source!r}"
            )
        if kind == "profile" and rest not in PROFILES:
            known = ", ".join(sorted(PROFILES))
            raise ConfigurationError(
                f"unknown traffic profile {rest!r}; available: {known}"
            )
        if self.load_scale <= 0:
            raise ConfigurationError("load_scale must be positive")
        if self.weight <= 0:
            raise ConfigurationError("weight must be positive")
        if self.window_size is not None and self.window_size < 1:
            raise ConfigurationError("window_size must be >= 1 or None")
        # Deep-freeze list params to tuples: profile configs want
        # hashable tuple fields, and JSON round-trips hand lists back --
        # normalizing here keeps reloaded scenarios equal to their
        # originals.
        object.__setattr__(
            self,
            "params",
            {key: _freeze(value) for key, value in self.params.items()},
        )
        object.__setattr__(
            self, "critical_targets", tuple(self.critical_targets)
        )

    @property
    def source_kind(self) -> str:
        """``"profile"`` or ``"app"``."""
        return self.source.partition(":")[0]

    @property
    def source_name(self) -> str:
        """The profile or application registry name."""
        return self.source.partition(":")[2]

    def build_trace(
        self, collector: Optional["CollectStage"] = None
    ) -> TrafficTrace:
        """Materialize this scenario's full-crossbar traffic trace.

        Deterministic: equal scenarios always produce record-identical
        traces (generators draw from config-seeded RNG instances, never
        interpreter-global state). A default ``app:`` build comes from
        ``collector`` (a :class:`~repro.pipeline.CollectStage`; by
        default one without a disk layer, which shares the per-process
        simulation memo); customized builds always simulate.
        """
        from repro.traffic.profiles import scaled_config, thin_trace

        if self.source_kind == "profile":
            module, config_name, generator_name = PROFILES[self.source_name]
            generators = importlib.import_module(module)
            config_cls = getattr(generators, config_name)
            generate = getattr(generators, generator_name)
            params = dict(self.params)
            if self.critical_targets:
                params["critical_targets"] = self.critical_targets
            try:
                config = config_cls(**params)
            except TypeError as exc:
                raise ConfigurationError(
                    f"scenario {self.name!r}: bad parameters for profile "
                    f"{self.source_name!r}: {exc}"
                ) from exc
            return generate(scaled_config(config, self.load_scale))
        from repro.apps import build_application
        from repro.pipeline.collect import CollectStage

        if self.params:
            application = build_application(self.source_name, **dict(self.params))
            trace = application.simulate_full_crossbar().trace
        else:
            # Default builds share one memoized Phase-1 simulation per
            # process -- suites that reuse an application at several
            # load scales simulate it once.
            collector = collector if collector is not None else CollectStage()
            trace = collector.source(build_application(self.source_name)).trace()
        if self.load_scale == 1.0:
            return trace
        if self.load_scale > 1.0:
            raise ConfigurationError(
                f"scenario {self.name!r}: application traces only support "
                f"load_scale <= 1 (deterministic thinning); re-generate the "
                f"workload as a profile to scale load up"
            )
        # zlib.crc32 (not hash()) so the thinning seed survives
        # PYTHONHASHSEED changes across processes.
        return thin_trace(
            trace, self.load_scale, seed=zlib.crc32(self.name.encode("utf-8"))
        )

    def effective_window(self, trace) -> int:
        """The analysis window for this scenario, clamped to the trace
        (a trace, or its :class:`~repro.pipeline.artifacts.TraceShape`:
        only ``total_cycles`` is read)."""
        if self.window_size is not None:
            window = self.window_size
        elif self.source_kind == "app":
            from repro.apps import build_application

            # Build with this scenario's params: overrides like a custom
            # burst length change the application's recommended window.
            window = build_application(
                self.source_name, **dict(self.params)
            ).default_window
        else:
            window = 1_000
        return max(1, min(window, trace.total_cycles))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready encoding (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "source": self.source,
            "params": dict(self.params),
            "load_scale": self.load_scale,
            "weight": self.weight,
            "window_size": self.window_size,
            "critical_targets": list(self.critical_targets),
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Scenario":
        """Decode a dictionary produced by :meth:`to_dict`."""
        try:
            return cls(
                name=str(payload["name"]),
                source=str(payload["source"]),
                params=dict(payload.get("params", {})),
                load_scale=float(payload.get("load_scale", 1.0)),
                weight=float(payload.get("weight", 1.0)),
                window_size=(
                    None
                    if payload.get("window_size") is None
                    else int(payload["window_size"])
                ),
                critical_targets=tuple(
                    int(t) for t in payload.get("critical_targets", ())
                ),
                description=str(payload.get("description", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed scenario payload: {exc}"
            ) from exc


@dataclass(frozen=True)
class ScenarioSuite:
    """An ordered collection of uniquely-named scenarios."""

    name: str
    scenarios: Tuple[Scenario, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("suite name must be non-empty")
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if not self.scenarios:
            raise ConfigurationError(
                f"suite {self.name!r} must contain at least one scenario"
            )
        seen = set()
        for scenario in self.scenarios:
            if scenario.name in seen:
                raise ConfigurationError(
                    f"suite {self.name!r} has duplicate scenario "
                    f"{scenario.name!r}"
                )
            seen.add(scenario.name)

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)

    @property
    def weights(self) -> Tuple[float, ...]:
        """Per-scenario deployment weights, in suite order."""
        return tuple(scenario.weight for scenario in self.scenarios)


def suite_to_dict(suite: ScenarioSuite) -> Dict[str, Any]:
    """Encode a suite as a JSON-ready dictionary."""
    return {
        "format": SUITE_FORMAT,
        "name": suite.name,
        "description": suite.description,
        "scenarios": [scenario.to_dict() for scenario in suite.scenarios],
    }


def suite_from_dict(payload: Mapping[str, Any]) -> ScenarioSuite:
    """Decode a dictionary produced by :func:`suite_to_dict`."""
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"suite payload must be an object, got {type(payload)}"
        )
    if payload.get("format") != SUITE_FORMAT:
        raise ConfigurationError(
            f"unsupported suite format {payload.get('format')!r} "
            f"(expected {SUITE_FORMAT!r})"
        )
    try:
        scenarios = tuple(
            Scenario.from_dict(entry) for entry in payload["scenarios"]
        )
        return ScenarioSuite(
            name=str(payload["name"]),
            scenarios=scenarios,
            description=str(payload.get("description", "")),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed suite payload: {exc}") from exc


def save_suite(suite: ScenarioSuite, path: Union[str, Path]) -> None:
    """Write a suite to ``path`` as formatted JSON."""
    Path(path).write_text(
        json.dumps(suite_to_dict(suite), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_suite(path: Union[str, Path]) -> ScenarioSuite:
    """Read a suite from a JSON file written by :func:`save_suite`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot load suite from {path}: {exc}") from exc
    return suite_from_dict(payload)
