"""The scenario-suite runner: fleet synthesis behind one entry point.

:class:`ScenarioSuiteRunner` takes a :class:`~repro.scenarios.model.ScenarioSuite`
and produces a :class:`SuiteRunReport`:

1. every scenario's trace is built deterministically,
2. every scenario is synthesized *individually* through the
   :class:`~repro.exec.engine.ExecutionEngine` -- scenarios fan out over
   worker processes and solved points come back from the
   content-addressed cache on repeat runs,
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
   (:class:`~repro.platform.drivers.TraceDrivenInitiator`); replay
   results are cached pipeline stages
   (:class:`~repro.pipeline.artifacts.ReplayArtifact`) and the misses
   fan out over the engine's process pool,
5. the report aggregates everything: a per-scenario table (own optimum
   vs the robust design), violation tables, and a Pareto view over
   (bus count, worst-case overlap) across all candidate designs.

Every step above runs as a stage of the staged pipeline
(:mod:`repro.pipeline`) through a runner-owned artifact store that
*persists across* :meth:`ScenarioSuiteRunner.run` calls. That makes
suite editing incremental: re-running an edited suite rebuilds, windows
and re-solves only the scenarios whose content changed -- everything
else is served from the store -- and then re-runs merge/replay on the
cached per-scenario analyses. The per-stage hit/miss breakdown of the
last run is available from :meth:`ScenarioSuiteRunner.explain_cache`
(surfaced by ``repro scenarios run --explain-cache``).
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
from repro.exec.cache import ResultCache
from repro.exec.engine import ExecutionEngine, ReplayTask, SynthesisTask
from repro.exec.serialize import (
    SynthesisResult,
    config_to_dict,
    result_to_dict,
)
from repro.pipeline.artifacts import (
    CollectedTraffic,
    ReplayArtifact,
    stage_fingerprint,
)
from repro.pipeline.collect import CollectStage
from repro.pipeline.runner import PipelineRunner
from repro.pipeline.store import ArtifactStore, StageCounters
from repro.platform.drivers import TraceDrivenInitiator, replay_platform
from repro.platform.metrics import LatencyStats
from repro.scenarios.model import Scenario, ScenarioSuite
from repro.traffic.trace import TrafficTrace

__all__ = [
    "REPORT_FORMAT",
    "ScenarioOutcome",
    "SuiteParetoPoint",
    "SuiteRunReport",
    "ScenarioSuiteRunner",
]

REPORT_FORMAT = "repro-scenario-report-v1"


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


@dataclass(frozen=True)
class _ScenarioReplay:
    """One scenario's latency-replay verdict (internal bookkeeping)."""

    latency: Optional[LatencyStats]
    skipped: Optional[str]
    fingerprint: str = ""
    summary: str = ""


class ScenarioSuiteRunner:
    """Drives a suite end to end; see the module docstring.

    Parameters
    ----------
    engine:
        Execution engine for the per-scenario individual solves and the
        batched replay simulations (parallelism + whole-result caching).
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
    pipeline:
        The stage runner; by default a fresh
        :class:`~repro.pipeline.PipelineRunner` whose store persists
        across :meth:`run` calls on this runner (the incremental path)
        and -- when the engine has a cache directory -- persists
        serializable stages there too.
    collector:
        Where default ``app:`` scenarios get their full-crossbar trace.
        By default a :class:`~repro.pipeline.CollectStage` on the
        pipeline's store: with a disk layer a fresh process reads the
        stored trace instead of simulating, and :meth:`explain_cache`
        shows a ``collect`` row either way.
    """

    def __init__(
        self,
        engine: Optional[ExecutionEngine] = None,
        config: Optional[SynthesisConfig] = None,
        policy: str = "union",
        min_weight: float = 0.5,
        replay_latency: bool = False,
        pipeline: Optional[PipelineRunner] = None,
        collector: Optional[CollectStage] = None,
    ) -> None:
        _check_policy(policy)
        self.engine = engine if engine is not None else ExecutionEngine(jobs=1)
        self.config = config or SynthesisConfig()
        self.policy = policy
        self.min_weight = min_weight
        self.replay_latency = replay_latency
        if pipeline is None:
            disk = None
            if self.engine.cache is not None:
                # A separate ResultCache *instance* on the engine's
                # directory: stage entries share the directory (one
                # prune covers both) without polluting the whole-result
                # hit/miss statistics callers observe on engine.cache.
                disk = ResultCache(self.engine.cache.cache_dir)
            pipeline = PipelineRunner(
                store=ArtifactStore(disk=disk), memoize_bindings=True
            )
        self.pipeline = pipeline
        self.collector = (
            collector if collector is not None else CollectStage(pipeline.store)
        )
        self.last_run_breakdown: Dict[str, Dict[str, int]] = {}
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
        before = self.pipeline.counters.snapshot()
        scenarios = list(suite.scenarios)
        # ~6 store entries per scenario and run (trace, 2x window, 2x
        # conflicts, individual) plus suite-level artifacts: size the
        # LRU so one run can never evict its own working set, or the
        # incremental guarantee would degrade silently on big suites.
        self.pipeline.store.reserve(8 * len(scenarios) + 32)
        collected = [self._scenario_traffic(s) for s in scenarios]
        traces = [artifact.trace for artifact in collected]
        self._check_platform(suite, scenarios, traces)
        windows = [
            scenario.effective_window(trace)
            for scenario, trace in zip(scenarios, traces)
        ]

        # Per-scenario analyses (phases 2-3) as cached pipeline stages.
        # The robust problems are always uniform-windowed (the merge
        # policies align windows by index), matching the historical
        # CrossbarDesignProblem.from_trace behaviour.
        analysis_config = replace(self.config, variable_windows=False)
        it_sides = []
        ti_sides = []
        for artifact, window in zip(collected, windows):
            it_windowed = self.pipeline.window(
                artifact, analysis_config, window, mirrored=False
            )
            ti_windowed = self.pipeline.window(
                artifact, analysis_config, window, mirrored=True
            )
            it_sides.append(
                (it_windowed, self.pipeline.conflicts(it_windowed, analysis_config))
            )
            ti_sides.append(
                (ti_windowed, self.pipeline.conflicts(ti_windowed, analysis_config))
            )

        individuals, individual_fingerprints = self._individual_results(
            scenarios, collected, traces, windows
        )

        names = [scenario.name for scenario in scenarios]
        robust = RobustSynthesizer(
            self.config, policy=self.policy, min_weight=self.min_weight
        ).design_from_artifacts(
            self.pipeline, it_sides, ti_sides, names=names, weights=suite.weights
        )

        replays = self._replay_latencies(scenarios, collected, robust.design)

        outcomes = tuple(
            ScenarioOutcome(
                scenario=scenario,
                num_records=len(trace),
                total_cycles=trace.total_cycles,
                window_size=window,
                individual=individual,
                it_check=it_check,
                ti_check=ti_check,
                latency=replay.latency,
                latency_skipped=replay.skipped,
            )
            for scenario, trace, window, individual, it_check, ti_check, replay
            in zip(
                scenarios,
                traces,
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
            individual_fingerprints,
            robust,
            replays,
        )
        pareto = self._pareto_view(
            outcomes,
            robust.design,
            [windowed.problem for windowed, _ in it_sides],
            [windowed.problem for windowed, _ in ti_sides],
        )
        self.last_run_breakdown = StageCounters.delta(
            before, self.pipeline.counters.snapshot()
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
        return StageCounters.format_tables(self.last_run_breakdown)

    # -- per-scenario stages ------------------------------------------

    def _scenario_trace_key(self, scenario: Scenario) -> str:
        """Content key of a scenario's trace-build stage.

        The key covers exactly the fields that determine the trace
        (source, params, load scale, QoS targets, and the name -- it
        seeds app-trace thinning); editing a scenario's weight or
        description therefore rebuilds nothing.
        """
        spec = {
            "source": scenario.source,
            "params": dict(scenario.params),
            "load_scale": scenario.load_scale,
            "critical_targets": list(scenario.critical_targets),
            "name": scenario.name,
        }
        return stage_fingerprint("scenario-trace", None, spec)

    def _scenario_traffic(self, scenario: Scenario) -> CollectedTraffic:
        """Phase 1 per scenario, content-addressed by the scenario spec."""
        return self.pipeline.memoized(
            "scenario-trace",
            self._scenario_trace_key(scenario),
            lambda: CollectedTraffic.from_trace(
                scenario.build_trace(self.collector),
                label=scenario.name,
            ),
        )

    def _individual_results(
        self,
        scenarios: Sequence[Scenario],
        collected: Sequence[CollectedTraffic],
        traces: Sequence[TrafficTrace],
        windows: Sequence[int],
    ) -> Tuple[List[SynthesisResult], List[str]]:
        """Each scenario's own optimum, memoized across runs.

        Unmemoized scenarios go to the engine in one batch (parallel +
        engine-cached); a rerun of an edited suite therefore hands the
        engine only the changed scenarios. ``computed`` here counts
        "delegated to the engine" -- the engine may still serve the
        point from its own whole-result cache. Returns the results and
        their stage fingerprints, both in suite order.
        """
        tasks = [
            SynthesisTask(
                config=replace(self.config, window_size=window),
                window_size=window,
            )
            for window in windows
        ]
        tags = [
            f"scenario:{scenario.source}:{scenario.name}"
            for scenario in scenarios
        ]
        results: List[Optional[SynthesisResult]] = [None] * len(scenarios)
        fingerprints: List[str] = []
        pending: List[Tuple[int, str]] = []
        for index, (artifact, task, tag) in enumerate(
            zip(collected, tasks, tags)
        ):
            fingerprint = stage_fingerprint(
                "individual-solve",
                artifact.fingerprint,
                {
                    "config": config_to_dict(task.config),
                    "window": task.window_size,
                    "tag": tag,
                },
            )
            fingerprints.append(fingerprint)
            cached = self.pipeline.store.get(fingerprint)
            if cached is not None:
                self.pipeline.counters.record_memo_hit("individual-solve")
                results[index] = cached
                continue
            pending.append((index, fingerprint))
        if pending:
            solved = self.engine.run_batch(
                [(traces[index], tasks[index]) for index, _ in pending],
                applications=[tags[index] for index, _ in pending],
            )
            for (index, fingerprint), result in zip(pending, solved):
                self.pipeline.counters.record_computed("individual-solve")
                self.pipeline.store.put(fingerprint, result)
                results[index] = result
        return results, fingerprints  # type: ignore[return-value]

    def _replay_plan(
        self, scenario: Scenario, trace: TrafficTrace, design: CrossbarDesign
    ) -> Tuple[Any, ReplayTask]:
        """The driver + portable task that replay this scenario.

        Full-load app-backed scenarios replay their live programs -- the
        closed-loop path reacts to the candidate fabric's contention
        exactly as the deployed software would. Every other kind
        (profile-backed, load-scaled, thinned) replays its recorded
        trace: the records already reflect scaling and thinning, and the
        trace-driven initiator re-issues them through the
        arbiter/bus/target models at their recorded cycles.
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
            task = ReplayTask(
                it_binding=design.it.binding,
                ti_binding=design.ti.binding,
                budget=application.sim_cycles * 4,
                app_name=scenario.source_name,
                app_params=tuple(sorted(scenario.params.items())),
                label=scenario.name,
            )
            return driver, task
        if scenario.source_kind == "app":
            platform = build_application(
                scenario.source_name, **dict(scenario.params)
            ).config
        else:
            platform = replay_platform(trace)
        driver = TraceDrivenInitiator(
            trace, config=platform, label=scenario.name
        )
        task = ReplayTask(
            it_binding=design.it.binding,
            ti_binding=design.ti.binding,
            budget=driver.sim_cycles,
            trace=trace,
            platform=platform,
            label=scenario.name,
        )
        return driver, task

    def _replay_latencies(
        self,
        scenarios: Sequence[Scenario],
        collected: Sequence[CollectedTraffic],
        design: CrossbarDesign,
    ) -> List[_ScenarioReplay]:
        """The validation stage: latency replay of the robust design
        through the platform simulator, for every scenario kind.

        Replays run as a cached pipeline stage: cached scenarios are
        served from the store (memory or disk), the misses fan out over
        the engine's replay batch (parallel when ``jobs > 1``), and
        every computed replay lands back in the store so reruns and
        other processes reuse it. A scenario replay cannot cover gets
        an explicit skip reason instead of a silently missing value.
        """
        if not self.replay_latency:
            return [_ScenarioReplay(None, None)] * len(scenarios)
        replays: List[Optional[_ScenarioReplay]] = [None] * len(scenarios)
        pending: List[Tuple[int, ReplayTask, Optional[str]]] = []
        for index, (scenario, artifact) in enumerate(
            zip(scenarios, collected)
        ):
            trace = artifact.trace
            if len(trace) == 0:
                # Nothing to drive through the fabric: no packets means
                # no latency sample, however the fabric looks.
                replays[index] = _ScenarioReplay(None, "empty trace")
                continue
            driver, task = self._replay_plan(scenario, trace, design)
            fingerprint = self.pipeline.replay_fingerprint(
                driver, design, task.budget
            )
            if fingerprint is not None:
                cached = self.pipeline.lookup_replay(fingerprint)
                if cached is not None:
                    replays[index] = _ScenarioReplay(
                        cached.stats, None, fingerprint, cached.describe()
                    )
                    continue
            pending.append((index, task, fingerprint))
        if pending:
            outcomes = self.engine.run_replay_batch(
                [task for _index, task, _fingerprint in pending]
            )
            for (index, _task, fingerprint), outcome in zip(
                pending, outcomes
            ):
                artifact = ReplayArtifact(
                    stats=outcome.stats,
                    critical_stats=outcome.critical_stats,
                    finished=outcome.finished,
                    num_transactions=outcome.num_transactions,
                    simulated_cycles=outcome.simulated_cycles,
                    fingerprint=fingerprint or "",
                    label=outcome.label,
                )
                self.pipeline.record_replay(artifact)
                replays[index] = _ScenarioReplay(
                    artifact.stats,
                    None,
                    fingerprint or "",
                    artifact.describe(),
                )
        return replays  # type: ignore[return-value]

    def _stage_rows(
        self,
        scenarios: Sequence[Scenario],
        collected: Sequence[CollectedTraffic],
        it_sides: Sequence[Tuple],
        ti_sides: Sequence[Tuple],
        individuals: Sequence[SynthesisResult],
        individual_fingerprints: Sequence[str],
        robust: RobustSynthesisReport,
        replays: Sequence[_ScenarioReplay],
    ) -> List[Tuple[str, str, str, str]]:
        """The per-scenario stage DAG of this run, as display rows."""
        rows: List[Tuple[str, str, str, str]] = []
        for index, (scenario, artifact) in enumerate(
            zip(scenarios, collected)
        ):
            rows.append(
                (
                    scenario.name,
                    "scenario-trace",
                    self._scenario_trace_key(scenario),
                    f"{len(artifact.trace)} records, "
                    f"{artifact.trace.total_cycles} cycles",
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
            rows.append(
                (
                    scenario.name,
                    "individual-solve",
                    individual_fingerprints[index],
                    f"{individuals[index].bus_count} buses",
                )
            )
            if self.replay_latency:
                replay = replays[index]
                rows.append(
                    (
                        scenario.name,
                        "replay",
                        replay.fingerprint or "-",
                        replay.summary
                        or f"skipped ({replay.skipped})",
                    )
                )
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
        traces: Sequence[TrafficTrace],
    ) -> None:
        shape = (traces[0].num_initiators, traces[0].num_targets)
        for scenario, trace in zip(scenarios[1:], traces[1:]):
            if (trace.num_initiators, trace.num_targets) != shape:
                raise ConfigurationError(
                    f"suite {suite.name!r}: scenario {scenario.name!r} runs "
                    f"on a {trace.num_initiators}x{trace.num_targets} "
                    f"platform but the suite started with "
                    f"{shape[0]}x{shape[1]}; a shared crossbar needs one "
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


