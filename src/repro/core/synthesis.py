"""End-to-end crossbar synthesis flow (paper Fig. 3).

:class:`CrossbarSynthesizer` drives all four phases for both crossbars of
an application:

1. full-crossbar simulation (traffic collection),
2. window segmentation + overlap/criticality extraction,
3. pre-processing into the conflict matrix,
4. configuration search + optimal binding, then a validation simulation
   on the designed crossbar.

The target->initiator crossbar is designed by running the identical
pipeline on the mirrored trace (responses to initiators), per the
paper's "designed in a similar fashion".

Since the staged-pipeline refactor the synthesizer is a thin driver
over :class:`repro.pipeline.PipelineRunner`: each phase is a pipeline
stage with a content-addressed artifact, so repeated designs over the
same trace on one runner (a synthesizer's own, or one handed to several
synthesizers, as a design-space sweep does) share the windowing and
conflict artifacts instead of recomputing them. Outputs are unchanged
-- a :class:`SynthesisReport` is assembled from the stage artifacts
exactly as the monolithic flow produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.descriptor import Application
from repro.core.preprocess import ConflictAnalysis
from repro.core.problem import CrossbarDesignProblem
from repro.core.search import SearchOutcome
from repro.core.spec import BusBinding, CrossbarDesign, SynthesisConfig
from repro.platform.soc import SimulationResult
from repro.traffic.trace import TrafficTrace

__all__ = ["SideReport", "SynthesisReport", "CrossbarSynthesizer"]


@dataclass(frozen=True)
class SideReport:
    """Diagnostics of one crossbar side's synthesis."""

    problem: CrossbarDesignProblem
    conflicts: ConflictAnalysis
    search: SearchOutcome
    binding: BusBinding


@dataclass(frozen=True)
class SynthesisReport:
    """Complete record of one synthesis run."""

    design: CrossbarDesign
    it_report: SideReport
    ti_report: SideReport
    trace: TrafficTrace
    config: SynthesisConfig

    def to_result(self):
        """Distill this report into a portable
        :class:`~repro.exec.serialize.SynthesisResult` (the record the
        execution engine caches and the CLI/report layer renders)."""
        from repro.exec.serialize import SynthesisResult

        return SynthesisResult.from_report(self)

    def summary(self) -> str:
        """Human-readable multi-line description of the outcome."""
        lines = [
            f"designed crossbar: {self.design.it.num_buses} IT buses + "
            f"{self.design.ti.num_buses} TI buses = {self.design.bus_count}",
            f"  window size: {self.it_report.problem.window_size} cycles, "
            f"overlap threshold: {self.config.overlap_threshold:.0%}",
            f"  IT conflicts: {self.it_report.conflicts.num_conflicts}, "
            f"search probes: {self.it_report.search.probes}",
            f"  TI conflicts: {self.ti_report.conflicts.num_conflicts}, "
            f"search probes: {self.ti_report.search.probes}",
            f"  max bus overlap (IT/TI): {self.design.it.max_bus_overlap}"
            f"/{self.design.ti.max_bus_overlap} cycles",
        ]
        return "\n".join(lines)


def _side_report(side) -> SideReport:
    """Assemble the classic per-side diagnostics from stage artifacts."""
    return SideReport(
        problem=side.windowed.problem,
        conflicts=side.conflicts.conflicts,
        search=side.binding.search,
        binding=side.binding.binding,
    )


class CrossbarSynthesizer:
    """The paper's design methodology, bundled behind one entry point.

    Example
    -------
    >>> from repro.apps import build_application
    >>> from repro.core import CrossbarSynthesizer, SynthesisConfig
    >>> app = build_application("mat2")
    >>> synthesizer = CrossbarSynthesizer(SynthesisConfig())
    >>> report = synthesizer.design(app)          # doctest: +SKIP
    >>> report.design.bus_count                   # doctest: +SKIP
    6
    """

    def __init__(
        self,
        config: Optional[SynthesisConfig] = None,
        pipeline=None,
    ) -> None:
        self.config = config or SynthesisConfig()
        # The pipeline import is deferred: repro.pipeline depends on the
        # core solver modules, so importing it at module scope here
        # would be circular.
        if pipeline is None:
            from repro.pipeline.runner import PipelineRunner
            from repro.pipeline.store import ArtifactStore

            pipeline = PipelineRunner(store=ArtifactStore(max_memory_entries=64))
        self.pipeline = pipeline

    def design(
        self,
        application: Application,
        trace: Optional[TrafficTrace] = None,
    ) -> SynthesisReport:
        """Run the full four-phase flow for an application.

        ``trace`` short-circuits Phase 1 when a full-crossbar trace is
        already available (e.g. the synthetic benchmark).
        """
        if trace is None:
            trace = application.simulate_full_crossbar().trace
        window = self.config.window_size or application.default_window
        return self.design_from_trace(trace, window)

    def design_from_trace(
        self, trace: TrafficTrace, window_size: Optional[int] = None
    ) -> SynthesisReport:
        """Phases 2-4 for both crossbars, from a full-crossbar trace.

        With ``config.variable_windows`` the analysis uses phase-aligned
        variable windows (the nominal window as the maximum size); the
        mirrored trace gets its own boundaries, since response phases
        need not line up with request phases.
        """
        window = window_size or self.config.window_size or 1_000
        outcome = self.pipeline.design(trace, self.config, window)
        return SynthesisReport(
            design=outcome.design,
            it_report=_side_report(outcome.it),
            ti_report=_side_report(outcome.ti),
            trace=trace,
            config=self.config,
        )

    def validate(
        self,
        application: Application,
        design: CrossbarDesign,
        max_cycles: Optional[int] = None,
    ) -> SimulationResult:
        """Phase 4's closing step: simulate the app on the designed
        crossbar."""
        return application.simulate(
            design.it.as_list(), design.ti.as_list(), max_cycles
        )
