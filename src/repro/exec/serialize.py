"""The portable synthesis-result record and its JSON codec.

A :class:`SynthesisResult` is the flyweight counterpart of
:class:`~repro.core.synthesis.SynthesisReport`: it keeps everything a
downstream consumer (cache, CLI, reports, sweeps) needs -- the designed
bindings, the effective window, the configuration and the search
diagnostics -- while dropping the heavyweight in-memory artifacts
(problem matrices, conflict graphs, the trace itself). That makes it
exact to round-trip through JSON, which is what the on-disk cache
stores.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict

from repro.core.spec import BusBinding, CrossbarDesign, SynthesisConfig
from repro.errors import ReproError

__all__ = [
    "SynthesisResult",
    "config_to_dict",
    "result_to_dict",
    "result_from_dict",
]

RESULT_FORMAT = "repro-result-v1"

# Configuration fields that no longer exist but that every
# ``repro-result-v1`` record -- and every cache key hashed from a
# record's config -- still carries, at the only values they ever took
# (``backend`` also took ``"milp"``, whose designs were byte-identical).
# Writing them keeps records and keys byte-identical; reading drops them.
_RETIRED_CONFIG_FIELDS = {
    "backend": "assignment",
    "lp_engine": "scipy",
    "milp_backend": None,
}


@dataclass(frozen=True)
class SynthesisResult:
    """One solved synthesis point, in serializable form.

    Attributes
    ----------
    design:
        Both crossbar bindings.
    window_size:
        Effective analysis window the point was solved with.
    config:
        The full synthesis configuration (including the nominal window,
        which may differ from ``window_size`` when the trace was shorter
        than the requested window).
    it_conflicts / ti_conflicts:
        Conflict-pair counts per crossbar side (pre-processing output).
    it_probes / ti_probes:
        Binary-search trajectory per side: candidate bus count ->
        feasibility verdict.
    """

    design: CrossbarDesign
    window_size: int
    config: SynthesisConfig
    it_conflicts: int = 0
    ti_conflicts: int = 0
    it_probes: Dict[int, bool] = None  # type: ignore[assignment]
    ti_probes: Dict[int, bool] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.it_probes is None:
            object.__setattr__(self, "it_probes", {})
        if self.ti_probes is None:
            object.__setattr__(self, "ti_probes", {})

    @property
    def bus_count(self) -> int:
        """Total buses across both crossbars."""
        return self.design.bus_count

    @classmethod
    def from_design(cls, design, config: SynthesisConfig) -> "SynthesisResult":
        """Distill a staged flow's
        :class:`~repro.pipeline.runner.PipelineDesign`, solved under
        ``config``."""
        it, ti = design.it, design.ti
        return cls(
            design=design.design,
            window_size=it.windowed.problem.window_size,
            config=config,
            it_conflicts=it.conflicts.conflicts.num_conflicts,
            ti_conflicts=ti.conflicts.conflicts.num_conflicts,
            it_probes=dict(it.binding.search.probes),
            ti_probes=dict(ti.binding.search.probes),
        )

    @classmethod
    def from_report(cls, report) -> "SynthesisResult":
        """Distill a full :class:`SynthesisReport` into a result."""
        return cls(
            design=report.design,
            window_size=report.it_report.problem.window_size,
            config=report.config,
            it_conflicts=report.it_report.conflicts.num_conflicts,
            ti_conflicts=report.ti_report.conflicts.num_conflicts,
            it_probes=dict(report.it_report.search.probes),
            ti_probes=dict(report.ti_report.search.probes),
        )


def _binding_to_dict(binding: BusBinding) -> Dict[str, Any]:
    return {
        "binding": list(binding.binding),
        "num_buses": binding.num_buses,
        "max_bus_overlap": binding.max_bus_overlap,
        "optimal": binding.optimal,
    }


def _binding_from_dict(payload: Dict[str, Any]) -> BusBinding:
    return BusBinding(
        binding=tuple(payload["binding"]),
        num_buses=int(payload["num_buses"]),
        max_bus_overlap=int(payload["max_bus_overlap"]),
        optimal=bool(payload["optimal"]),
    )


def config_to_dict(config: SynthesisConfig) -> Dict[str, Any]:
    """The configuration as ``repro-result-v1`` records and hashes it."""
    record = {}
    for name, value in asdict(config).items():
        record[name] = value
        if name == "max_targets_per_bus":  # ``backend``'s slot
            record["backend"] = _RETIRED_CONFIG_FIELDS["backend"]
    return {**record, **_RETIRED_CONFIG_FIELDS}


def result_to_dict(result: SynthesisResult) -> Dict[str, Any]:
    """Encode a result as a JSON-ready dictionary."""
    return {
        "format": RESULT_FORMAT,
        "window_size": result.window_size,
        "config": config_to_dict(result.config),
        "design": {
            "label": result.design.label,
            "it": _binding_to_dict(result.design.it),
            "ti": _binding_to_dict(result.design.ti),
        },
        "diagnostics": {
            "it_conflicts": result.it_conflicts,
            "ti_conflicts": result.ti_conflicts,
            "it_probes": {str(k): v for k, v in result.it_probes.items()},
            "ti_probes": {str(k): v for k, v in result.ti_probes.items()},
        },
    }


def result_from_dict(payload: Dict[str, Any]) -> SynthesisResult:
    """Decode a dictionary produced by :func:`result_to_dict`.

    Raises :class:`~repro.errors.ReproError` on version or shape
    mismatch, so stale cache entries are reported (and skipped by the
    cache) instead of crashing a sweep.
    """
    if not isinstance(payload, dict):
        raise ReproError(f"result payload must be an object, got {type(payload)}")
    if payload.get("format") != RESULT_FORMAT:
        raise ReproError(
            f"unsupported result format {payload.get('format')!r} "
            f"(expected {RESULT_FORMAT!r})"
        )
    try:
        design_payload = payload["design"]
        diagnostics = payload.get("diagnostics", {})
        config_fields = {
            name: value
            for name, value in payload["config"].items()
            if name not in _RETIRED_CONFIG_FIELDS
        }
        design = CrossbarDesign(
            it=_binding_from_dict(design_payload["it"]),
            ti=_binding_from_dict(design_payload["ti"]),
            label=design_payload.get("label", "windowed"),
        )
        return SynthesisResult(
            design=design,
            window_size=int(payload["window_size"]),
            config=SynthesisConfig(**config_fields),
            it_conflicts=int(diagnostics.get("it_conflicts", 0)),
            ti_conflicts=int(diagnostics.get("ti_conflicts", 0)),
            it_probes={
                int(k): bool(v)
                for k, v in diagnostics.get("it_probes", {}).items()
            },
            ti_probes={
                int(k): bool(v)
                for k, v in diagnostics.get("ti_probes", {}).items()
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"malformed synthesis result payload: {exc}") from exc
