"""The scenario-suite runner: fleet synthesis behind one entry point.

:class:`ScenarioSuiteRunner` takes a :class:`~repro.scenarios.model.ScenarioSuite`
and produces a :class:`SuiteRunReport`:

1. every scenario's trace is built deterministically, or read by its
   digest and shape from the collect stage's store,
2. every scenario is synthesized *individually* through the
   :class:`~repro.exec.engine.ExecutionEngine`'s whole-result lookup --
   solved points come back from its memory or its content-addressed
   cache on repeat runs, and a miss is solved on the engine's runner,
   whose memory already holds the scenario's windows and conflicts from
   the suite's analysis,
3. one *robust* crossbar is synthesized across all scenarios
   (:class:`~repro.core.multi.RobustSynthesizer`) under the selected
   merge policy,
4. the shared design is replayed against every scenario's own problem
   (capacity + separation audit, per-scenario worst-case overlap), and
   optionally (``replay_latency=True``) through the platform simulator
   for *every* scenario kind, reporting observed packet latency:
   full-load app-backed scenarios replay their live programs, while
   profile-backed, load-scaled and thinned scenarios replay their
   recorded traces through a trace-driven workload driver
   (:class:`~repro.platform.drivers.TraceDrivenInitiator`); every
   scenario's replay runs through the pipeline's cached replay stage
   (:meth:`~repro.pipeline.runner.PipelineRunner.replay`, whose
   :class:`~repro.pipeline.artifacts.ReplayArtifact` results persist
   across runs),
5. the report aggregates everything: a per-scenario table (own optimum
   vs the robust design), violation tables, and a Pareto view over
   (bus count, worst-case overlap) across all candidate designs.

Every step above runs as a stage of the staged pipeline
(:mod:`repro.pipeline`) on the engine's runner and collector
(:attr:`~repro.exec.engine.ExecutionEngine.pipeline`,
:attr:`~repro.exec.engine.ExecutionEngine.collector`), whose stores
*persist across* :meth:`ScenarioSuiteRunner.run` calls and across the
runners and daemon jobs sharing the engine. That makes suite editing
incremental: re-running an edited suite rebuilds, windows and re-solves
only the scenarios whose content changed -- everything else is served
from the store -- and then re-runs merge/replay on the cached
per-scenario analyses. The per-stage hit/miss breakdown of the last run
-- the growth of the registry's stage tallies over it, with each
individual solve under the engine's ``design`` row -- is available from
:meth:`ScenarioSuiteRunner.explain_cache` (surfaced by ``repro
scenarios run --explain-cache``). Its stage entries persist through the
engine's one :class:`~repro.exec.cache.ResultCache`, which counts them
apart from the whole-result lookups.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.analysis.textplot import xy_plot
from repro.core.binding import binding_overlap_objective
from repro.core.multi import (
    RobustSynthesisReport,
    RobustSynthesizer,
    ScenarioSideCheck,
    _check_policy,
    _empty_conflicts,
)
from repro.core.problem import CrossbarDesignProblem
from repro.core.spec import BusBinding, CrossbarDesign, SynthesisConfig
from repro.core.validate import audit_binding
from repro.errors import ConfigurationError
from repro.exec.engine import ExecutionEngine, SynthesisTask
from repro.exec.serialize import SynthesisResult, result_to_dict
from repro.pipeline.artifacts import (
    CollectedTraffic,
    ReplayArtifact,
    TraceDigestMismatch,
    TraceShape,
    TraceSource,
)
from repro.pipeline.runner import PipelineRunner
from repro.obs import metrics as _metrics
from repro.pipeline.store import format_stage_tables, stage_tables
from repro.platform.drivers import (
    TraceDrivenInitiator,
    WorkloadDriver,
    replay_platform,
)
from repro.platform.metrics import LatencyStats
from repro.scenarios.model import Scenario, ScenarioSuite

__all__ = [
    "REPORT_FORMAT",
    "ScenarioOutcome",
    "SuiteParetoPoint",
    "SuiteRunReport",
    "ScenarioSuiteRunner",
]

REPORT_FORMAT = "repro-scenario-report-v1"

_EMPTY_TRACE = "empty trace"
"""Why a scenario has no latency replay: nothing to drive through the
fabric."""


@dataclass(frozen=True)
class ScenarioOutcome:
    """Everything the suite run learned about one scenario."""

    scenario: Scenario
    num_records: int
    total_cycles: int
    window_size: int
    individual: SynthesisResult
    it_check: ScenarioSideCheck
    ti_check: ScenarioSideCheck
    latency: Optional[LatencyStats] = None
    """Observed packet latency of the robust design replayed through the
    platform simulator -- populated for every scenario kind when the
    runner was built with ``replay_latency=True``: full-load app-backed
    scenarios replay their live programs, profile-backed and load-scaled
    or thinned scenarios replay their recorded traces through a
    trace-driven workload driver."""

    latency_skipped: Optional[str] = None
    """Why replay could not cover this scenario (e.g. ``"empty trace"``);
    ``None`` when replay ran or was not requested. Reports render this
    as an explicit ``skipped (<reason>)`` marker instead of silently
    omitting the latency value."""

    @property
    def individual_buses(self) -> int:
        """This scenario's own optimal bus count (both crossbars)."""
        return self.individual.bus_count

    @property
    def violations(self) -> Tuple[str, ...]:
        """All replay violations of the robust design on this scenario."""
        return (
            self.it_check.capacity_violations
            + self.it_check.separation_violations
            + self.ti_check.capacity_violations
            + self.ti_check.separation_violations
        )

    @property
    def worst_case_overlap(self) -> int:
        """Worst per-bus overlap (cycles) under the robust design."""
        return max(self.it_check.max_bus_overlap, self.ti_check.max_bus_overlap)


@dataclass(frozen=True)
class SuiteParetoPoint:
    """One candidate design evaluated across the whole suite.

    ``worst_case_overlap`` is the suite-wide maximum of Eq. 11's
    objective (the serialization-latency proxy the binding optimizer
    minimizes); ``violations`` counts capacity/separation failures when
    the candidate is replayed on every scenario. The Pareto front is
    taken over (bus_count, worst_case_overlap) among violation-free
    candidates.
    """

    label: str
    bus_count: int
    worst_case_overlap: int
    violations: int
    on_front: bool = False


@dataclass(frozen=True)
class SuiteRunReport:
    """Aggregated outcome of one scenario-suite run."""

    suite_name: str
    policy: str
    robust: RobustSynthesisReport
    outcomes: Tuple[ScenarioOutcome, ...]
    pareto: Tuple[SuiteParetoPoint, ...]

    @property
    def robust_buses(self) -> int:
        return self.robust.design.bus_count

    @property
    def total_violations(self) -> int:
        return sum(len(outcome.violations) for outcome in self.outcomes)

    @staticmethod
    def _latency_cell(outcome: "ScenarioOutcome") -> str:
        if outcome.latency is not None:
            return f"{outcome.latency.mean:.1f}"
        if outcome.latency_skipped is not None:
            return f"skipped ({outcome.latency_skipped})"
        return "-"

    def summary(self) -> str:
        """The aggregated plain-text report."""
        with_latency = any(
            outcome.latency is not None or outcome.latency_skipped is not None
            for outcome in self.outcomes
        )
        rows = [
            [
                outcome.scenario.name,
                outcome.scenario.source,
                outcome.num_records,
                outcome.window_size,
                f"{outcome.individual.design.it.num_buses}+"
                f"{outcome.individual.design.ti.num_buses}",
                outcome.individual_buses,
                len(outcome.violations),
                outcome.worst_case_overlap,
            ]
            + ([self._latency_cell(outcome)] if with_latency else [])
            for outcome in self.outcomes
        ]
        headers = ["scenario", "source", "packets", "window", "own IT+TI",
                   "own buses", "robust viol", "robust maxov"]
        if with_latency:
            headers.append("avg lat (cy)")
        parts = [
            format_table(
                headers,
                rows,
                title=f"scenario suite '{self.suite_name}' "
                f"({len(self.outcomes)} scenarios, policy={self.policy})",
            ),
            "",
            self.robust.summary(),
        ]
        violation_rows = [
            [outcome.scenario.name, violation]
            for outcome in self.outcomes
            for violation in outcome.violations
        ]
        if violation_rows:
            parts += [
                "",
                format_table(
                    ["scenario", "violation"],
                    violation_rows,
                    title="replay violations of the robust design",
                ),
            ]
        parts += [
            "",
            format_table(
                ["design", "buses", "worst maxov", "violations", "pareto"],
                [
                    [
                        point.label,
                        point.bus_count,
                        point.worst_case_overlap,
                        point.violations,
                        "*" if point.on_front else "",
                    ]
                    for point in self.pareto
                ],
                title="suite-wide design candidates "
                "(buses vs worst-case overlap)",
            ),
        ]
        feasible = [point for point in self.pareto if point.violations == 0]
        if len(feasible) >= 2:
            parts += [
                "",
                xy_plot(
                    [float(point.bus_count) for point in feasible],
                    [float(point.worst_case_overlap) for point in feasible],
                    title="feasible candidates: worst-case overlap vs buses",
                    x_label="buses",
                    y_label="maxov",
                ),
            ]
        return "\n".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready encoding of the aggregated report."""

        def binding_dict(binding: BusBinding) -> Dict[str, Any]:
            return {
                "binding": list(binding.binding),
                "num_buses": binding.num_buses,
                "max_bus_overlap": binding.max_bus_overlap,
                "optimal": binding.optimal,
            }

        def check_dict(check: ScenarioSideCheck) -> Dict[str, Any]:
            return {
                "capacity_violations": list(check.capacity_violations),
                "separation_violations": list(check.separation_violations),
                "max_bus_overlap": check.max_bus_overlap,
            }

        return {
            "format": REPORT_FORMAT,
            "suite": self.suite_name,
            "policy": self.policy,
            "robust": {
                "label": self.robust.design.label,
                "bus_count": self.robust.design.bus_count,
                "it": binding_dict(self.robust.design.it),
                "ti": binding_dict(self.robust.design.ti),
                "it_conflicts": self.robust.it_report.conflicts.num_conflicts,
                "ti_conflicts": self.robust.ti_report.conflicts.num_conflicts,
                "total_violations": self.robust.total_violations,
            },
            "scenarios": [
                {
                    "scenario": outcome.scenario.to_dict(),
                    "packets": outcome.num_records,
                    "total_cycles": outcome.total_cycles,
                    "window_size": outcome.window_size,
                    "individual": result_to_dict(outcome.individual),
                    "it_check": check_dict(outcome.it_check),
                    "ti_check": check_dict(outcome.ti_check),
                    # Latency replay is opt-in; the keys appear only when
                    # it ran, keeping reports byte-identical otherwise.
                    **(
                        {"latency": asdict(outcome.latency)}
                        if outcome.latency is not None
                        else {}
                    ),
                    **(
                        {"latency_skipped": outcome.latency_skipped}
                        if outcome.latency_skipped is not None
                        else {}
                    ),
                }
                for outcome in self.outcomes
            ],
            "pareto": [
                {
                    "label": point.label,
                    "bus_count": point.bus_count,
                    "worst_case_overlap": point.worst_case_overlap,
                    "violations": point.violations,
                    "on_front": point.on_front,
                }
                for point in self.pareto
            ],
        }


def _trace_spec(scenario: Scenario) -> Dict[str, Any]:
    """Exactly the scenario fields that determine its trace: source,
    params, load scale, QoS targets, and the name (it seeds app-trace
    thinning)."""
    return {
        "source": scenario.source,
        "params": dict(scenario.params),
        "load_scale": scenario.load_scale,
        "critical_targets": list(scenario.critical_targets),
        "name": scenario.name,
    }


class ScenarioSuiteRunner:
    """Drives a suite end to end; see the module docstring.

    Parameters
    ----------
    engine:
        Execution engine whose runner and collector run every stage:
        the traces, the analyses, the per-scenario individual solves
        (its whole-result lookup) and the replay batch. Runners sharing
        an engine share its stores.
    replay_latency:
        Also replay the robust design through the platform simulator
        for *every* scenario, reporting average packet latency next to
        the capacity/separation audit. Full-load app-backed scenarios
        replay their live programs (closed-loop); profile-backed,
        load-scaled and thinned scenarios replay their recorded traces
        through a :class:`~repro.platform.drivers.TraceDrivenInitiator`.
        Replays run as a cached pipeline stage
        (:class:`~repro.pipeline.artifacts.ReplayArtifact`), so suite
        re-runs reuse simulated latencies instead of re-simulating; the
        rare scenario replay cannot cover (e.g. an empty trace) is
        marked ``skipped (<reason>)`` in the report.

    A default full-load ``app:`` scenario's trace is stored as its
    application's collection, any other as a generated entry under the
    scenario's spec: with a cache directory a fresh process reads each
    stored trace's digest and shape instead of simulating or generating
    it (the records load only for a stage that must compute from them).
    """

    def __init__(
        self,
        engine: Optional[ExecutionEngine] = None,
        config: Optional[SynthesisConfig] = None,
        policy: str = "union",
        min_weight: float = 0.5,
        replay_latency: bool = False,
    ) -> None:
        _check_policy(policy)
        self.engine = engine if engine is not None else ExecutionEngine()
        self.config = config or SynthesisConfig()
        self.policy = policy
        self.min_weight = min_weight
        self.replay_latency = replay_latency
        self.last_run_breakdown: Dict[str, Dict[str, int]] = {}
        """Stage tallies of the last :meth:`run`: the growth of the
        registry's ``repro_stage_events_total`` over it, so it counts
        every stage event the process recorded meanwhile."""
        self.last_stage_rows: List[Tuple[str, str, str, str]] = []
        """(scenario, stage, fingerprint, summary) rows of the last run's
        per-scenario stage DAG (``repro pipeline inspect <suite>``)."""

    def run(self, suite: ScenarioSuite) -> SuiteRunReport:
        """Synthesize the suite: every scenario alone, then one robust
        crossbar validated against all of them.

        Re-running after editing the suite re-executes only the changed
        scenarios' per-scenario stages (trace build, windowing,
        conflicts, individual solve); unchanged scenarios are served
        from the pipeline store and only merge/replay re-runs on the
        cached analyses.
        """
        before = _metrics.REGISTRY.snapshot()
        # ~8 store entries per scenario and run (2x window, 2x
        # conflicts, 2x bind reuse record, whole result, replay) plus
        # suite-level artifacts: size the LRU so one run can never
        # evict its own working set, or the incremental guarantee
        # would degrade silently on big suites.
        self.engine.pipeline.store.reserve(10 * len(suite.scenarios) + 32)
        for _ in suite.scenarios:
            try:
                report = self._run(suite)
                break
            except TraceDigestMismatch:
                # A stored trace loaded with a digest other than the one
                # its stages were addressed by. Nothing was stored under
                # the stale digest, and the scenario's source now carries
                # the loaded one: run again under it. Each restart
                # settles at least one source.
                continue
        else:
            report = self._run(suite)
        self.last_run_breakdown = stage_tables(before)
        return report

    def _run(self, suite: ScenarioSuite) -> SuiteRunReport:
        """One pass of :meth:`run`; raises
        :class:`~repro.pipeline.artifacts.TraceDigestMismatch` when a
        stored trace had to load and its digest moved."""
        scenarios = list(suite.scenarios)
        # Phase 1 per scenario, content-addressed by the scenario spec:
        # the trace's digest and shape, its records only on demand.
        collected = []
        for scenario in scenarios:
            source = self._scenario_source(scenario)
            collected.append(
                CollectedTraffic(source, source.digest, scenario.name)
            )
        shapes = [artifact.source.shape for artifact in collected]
        self._check_platform(suite, scenarios, shapes)
        windows = [
            scenario.effective_window(shape)
            for scenario, shape in zip(scenarios, shapes)
        ]

        # Per-scenario analyses (phases 2-3) as cached pipeline stages.
        # The robust problems are always uniform-windowed (the merge
        # policies align windows by index), matching the historical
        # CrossbarDesignProblem.from_trace behaviour.
        analysis_config = replace(self.config, variable_windows=False)
        pipeline = self.engine.pipeline
        it_sides = []
        ti_sides = []
        for artifact, window in zip(collected, windows):
            it_windowed = pipeline.window(
                artifact, analysis_config, window, mirrored=False
            )
            ti_windowed = pipeline.window(
                artifact, analysis_config, window, mirrored=True
            )
            it_sides.append(
                (it_windowed, pipeline.conflicts(it_windowed, analysis_config))
            )
            ti_sides.append(
                (ti_windowed, pipeline.conflicts(ti_windowed, analysis_config))
            )

        individuals = self._individual_results(collected, windows)

        names = [scenario.name for scenario in scenarios]
        robust = RobustSynthesizer(
            self.config, policy=self.policy, min_weight=self.min_weight
        ).design_from_artifacts(
            pipeline, it_sides, ti_sides, names=names, weights=suite.weights
        )

        replays = self._replay_latencies(scenarios, collected, robust.design)
        # With replay on, the only scenario left without a replay is an
        # empty one: no packets means no latency sample.
        skipped = _EMPTY_TRACE if self.replay_latency else None

        outcomes = tuple(
            ScenarioOutcome(
                scenario=scenario,
                num_records=shape.num_records,
                total_cycles=shape.total_cycles,
                window_size=window,
                individual=individual,
                it_check=it_check,
                ti_check=ti_check,
                latency=replay.stats if replay is not None else None,
                latency_skipped=skipped if replay is None else None,
            )
            for scenario, shape, window, individual, it_check, ti_check, replay
            in zip(
                scenarios,
                shapes,
                windows,
                individuals,
                robust.it_report.scenario_checks,
                robust.ti_report.scenario_checks,
                replays,
            )
        )
        self.last_stage_rows = self._stage_rows(
            scenarios,
            collected,
            it_sides,
            ti_sides,
            individuals,
            robust,
            replays,
        )
        pareto = self._pareto_view(
            outcomes,
            robust.design,
            [windowed.problem for windowed, _ in it_sides],
            [windowed.problem for windowed, _ in ti_sides],
        )
        return SuiteRunReport(
            suite_name=suite.name,
            policy=self.policy,
            robust=robust,
            outcomes=outcomes,
            pareto=pareto,
        )

    def explain_cache(self) -> str:
        """Per-stage computed/memo-hit/disk-hit table of the last run."""
        return format_stage_tables(self.last_run_breakdown)

    # -- per-scenario stages ------------------------------------------

    def _scenario_source(self, scenario: Scenario) -> TraceSource:
        """The collector's source of a scenario's trace.

        A default full-load ``app:`` scenario reads its application's
        collection; every other trace is a generated entry filed under
        the scenario's spec, so a warm run neither builds nor hashes it.
        """
        collector = self.engine.collector
        if (
            scenario.source_kind == "app"
            and not scenario.params
            and scenario.load_scale == 1.0
        ):
            from repro.apps import build_application

            return collector.source(build_application(scenario.source_name))
        return collector.generated(
            _trace_spec(scenario), lambda: scenario.build_trace(collector)
        )

    def _individual_results(
        self,
        collected: Sequence[CollectedTraffic],
        windows: Sequence[int],
    ) -> List[SynthesisResult]:
        """Each scenario's own optimum, in suite order: one engine batch
        over every scenario, each answered by the engine's whole-result
        memo, its cache, or a solve on its runner, whose memory already
        holds the scenario's windows and conflicts."""
        solved = self.engine.run_batch(
            [
                (
                    artifact.source.trace,
                    SynthesisTask(
                        config=replace(self.config, window_size=window),
                        window_size=window,
                    ),
                    artifact.fingerprint,
                )
                for artifact, window in zip(collected, windows)
            ]
        )
        # The engine restarts a point whose trace loaded with another
        # digest under that one; the scenario must restart too, so that
        # nothing downstream is keyed by its stale fingerprint.
        for artifact in collected:
            if artifact.source.digest != artifact.fingerprint:
                raise TraceDigestMismatch(
                    f"scenario {artifact.label!r}: loaded trace "
                    f"{artifact.source.digest[:12]} is not "
                    f"{artifact.fingerprint[:12]}"
                )
        return solved

    def _replay_plan(
        self,
        scenario: Scenario,
        collected: CollectedTraffic,
        design: CrossbarDesign,
    ) -> Tuple[WorkloadDriver, CrossbarDesign, int, str]:
        """The ``(driver, design, budget, label)`` plan that replays this
        scenario through :meth:`PipelineRunner.replay`.

        Full-load app-backed scenarios replay their live programs -- the
        closed-loop path reacts to the candidate fabric's contention
        exactly as the deployed software would. Every other kind
        (profile-backed, load-scaled, thinned) replays its recorded
        trace: the records already reflect scaling and thinning, and the
        trace-driven initiator re-issues them through the
        arbiter/bus/target models at their recorded cycles, loading
        them only when the replay stage misses.
        """
        from repro.apps import build_application
        from repro.exec.fingerprint import canonical_json

        if scenario.source_kind == "app" and scenario.load_scale == 1.0:
            application = build_application(
                scenario.source_name, **dict(scenario.params)
            )
            driver = application.driver(
                source_key=canonical_json(
                    {"source": scenario.source, "params": dict(scenario.params)}
                )
            )
            return driver, design, application.sim_cycles * 4, scenario.name
        if scenario.source_kind == "app":
            platform = build_application(
                scenario.source_name, **dict(scenario.params)
            ).config
        else:
            platform = replay_platform(collected.source.shape)
        driver = TraceDrivenInitiator(
            collected.source, config=platform, label=scenario.name
        )
        return driver, design, driver.sim_cycles, scenario.name

    def _replay_latencies(
        self,
        scenarios: Sequence[Scenario],
        collected: Sequence[CollectedTraffic],
        design: CrossbarDesign,
    ) -> List[Optional[ReplayArtifact]]:
        """The validation stage: latency replay of the robust design
        through the platform simulator, for every scenario kind.

        Every non-empty scenario's plan goes to the engine as one replay
        batch through the pipeline's cached replay stage: cached
        scenarios are served from the store (memory or disk), and every
        computed replay lands back in the store so reruns and other
        processes reuse it. An empty scenario (nothing to drive through
        the fabric) gets ``None``, which the report renders as an
        explicit skip instead of a silently missing value.
        """
        replays: List[Optional[ReplayArtifact]] = [None] * len(scenarios)
        if not self.replay_latency:
            return replays
        pending = [
            index
            for index, artifact in enumerate(collected)
            if artifact.source.shape.num_records > 0
        ]
        plans = [
            self._replay_plan(scenarios[index], collected[index], design)
            for index in pending
        ]
        for index, artifact in zip(pending, self.engine.run_replay_batch(plans)):
            replays[index] = artifact
        return replays

    def _stage_rows(
        self,
        scenarios: Sequence[Scenario],
        collected: Sequence[CollectedTraffic],
        it_sides: Sequence[Tuple],
        ti_sides: Sequence[Tuple],
        individuals: Sequence[SynthesisResult],
        robust: RobustSynthesisReport,
        replays: Sequence[Optional[ReplayArtifact]],
    ) -> List[Tuple[str, str, str, str]]:
        """The per-scenario stage DAG of this run, as display rows."""
        rows: List[Tuple[str, str, str, str]] = []
        for index, (scenario, artifact) in enumerate(
            zip(scenarios, collected)
        ):
            rows.append(
                (
                    scenario.name,
                    "collect",
                    artifact.fingerprint,
                    f"{artifact.source.shape.num_records} records, "
                    f"{artifact.source.shape.total_cycles} cycles",
                )
            )
            for side_name, sides in (("it", it_sides), ("ti", ti_sides)):
                windowed, conflicts = sides[index]
                rows.append(
                    (
                        scenario.name,
                        f"window[{side_name}]",
                        windowed.fingerprint,
                        windowed.describe(),
                    )
                )
                rows.append(
                    (
                        scenario.name,
                        f"conflicts[{side_name}]",
                        conflicts.fingerprint,
                        conflicts.describe(),
                    )
                )
            individual = individuals[index]
            rows.append(
                (
                    scenario.name,
                    "design",
                    # The address of the engine's whole-result lookup.
                    PipelineRunner.design_fingerprint(
                        artifact.fingerprint,
                        individual.config,
                        individual.config.window_size,
                    ),
                    f"{individual.bus_count} buses",
                )
            )
            if self.replay_latency:
                replay = replays[index]
                if replay is None:
                    fingerprint = "-"
                    summary = f"skipped ({_EMPTY_TRACE})"
                else:
                    fingerprint = replay.fingerprint or "-"
                    summary = replay.describe()
                rows.append((scenario.name, "replay", fingerprint, summary))
        for side_name, side_report in (
            ("it", robust.it_report),
            ("ti", robust.ti_report),
        ):
            rows.append(
                (
                    "(suite)",
                    f"bind-merged[{side_name}]",
                    side_report.stage_fingerprint or "-",
                    f"{side_report.binding.num_buses} buses, maxov "
                    f"{side_report.binding.max_bus_overlap}",
                )
            )
        return rows

    @staticmethod
    def _check_platform(
        suite: ScenarioSuite,
        scenarios: Sequence[Scenario],
        shapes: Sequence[TraceShape],
    ) -> None:
        first = (shapes[0].num_initiators, shapes[0].num_targets)
        for scenario, shape in zip(scenarios[1:], shapes[1:]):
            if (shape.num_initiators, shape.num_targets) != first:
                raise ConfigurationError(
                    f"suite {suite.name!r}: scenario {scenario.name!r} runs "
                    f"on a {shape.num_initiators}x{shape.num_targets} "
                    f"platform but the suite started with "
                    f"{first[0]}x{first[1]}; a shared crossbar needs one "
                    f"platform shape"
                )

    def _pareto_view(
        self,
        outcomes: Sequence[ScenarioOutcome],
        robust_design: CrossbarDesign,
        it_problems: Sequence[CrossbarDesignProblem],
        ti_problems: Sequence[CrossbarDesignProblem],
    ) -> Tuple[SuiteParetoPoint, ...]:
        """Evaluate every candidate design across the whole suite.

        Candidates are each scenario's own optimal design plus the
        robust design. A candidate tuned to one scenario typically
        violates capacity or separation constraints on the others --
        which is exactly what the table demonstrates.
        """
        candidates: List[Tuple[str, CrossbarDesign]] = [
            (outcome.scenario.name, outcome.individual.design)
            for outcome in outcomes
        ]
        candidates.append((robust_design.label, robust_design))

        evaluated = []
        for label, design in candidates:
            worst = 0
            violations = 0
            for it_problem, ti_problem in zip(it_problems, ti_problems):
                for problem, binding in (
                    (it_problem, design.it),
                    (ti_problem, design.ti),
                ):
                    violations += len(
                        audit_binding(
                            problem,
                            _empty_conflicts(problem.num_targets),
                            binding.binding,
                            max_targets_per_bus=None,
                        )
                    )
                    worst = max(
                        worst,
                        binding_overlap_objective(problem, binding.binding),
                    )
            evaluated.append((label, design.bus_count, worst, violations))

        points = []
        for label, buses, worst, violations in evaluated:
            dominated = violations == 0 and any(
                other_violations == 0
                and other_buses <= buses
                and other_worst <= worst
                and (other_buses < buses or other_worst < worst)
                for _other, other_buses, other_worst, other_violations in evaluated
            )
            points.append(
                SuiteParetoPoint(
                    label=label,
                    bus_count=buses,
                    worst_case_overlap=worst,
                    violations=violations,
                    on_front=violations == 0 and not dominated,
                )
            )
        return tuple(points)


