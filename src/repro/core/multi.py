"""Robust multi-scenario crossbar synthesis.

The paper designs one crossbar per application; a shipping SoC fabric
must serve *every* use-case of the chip. This module merges the
per-scenario analyses into a single design problem so the unchanged
phase-4 solve (:func:`~repro.core.binding.bind_minimum_buses`, the
pipeline's bind stage compute) produces one crossbar meeting all
scenarios at once.

Merge policies
--------------
``union``
    Per-scenario windows are *concatenated* into one problem: every
    scenario's window-bandwidth constraint (Eq. 4) is enforced exactly,
    and the conflict matrix is the union of the per-scenario matrices.
    This is the exact robust formulation -- a binding feasible for the
    merged problem is feasible for each scenario individually.
``worst-case``
    An *envelope* problem: windows are aligned by index (zero-padded to
    the longest scenario) and ``comm``/``wo`` take the element-wise
    maximum across scenarios. More conservative than ``union`` (it can
    combine demands no single scenario produces) but keeps the window
    count of a single scenario, so every solve checks fewer windows.
``weighted``
    Bandwidth constraints as in ``union``; threshold/real-time conflict
    pairs are kept only when the scenarios exhibiting them carry at
    least ``min_weight`` of the total scenario weight. Rarely-exercised
    use-cases then stop forcing extra buses; capacity safety is
    unaffected (the solver enforces Eq. 4 regardless of the conflict
    matrix), only latency-isolation separations are relaxed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.binding import bind_minimum_buses, binding_overlap_objective
from repro.core.preprocess import ConflictAnalysis, build_conflicts
from repro.core.problem import CrossbarDesignProblem
from repro.core.search import SearchOutcome
from repro.core.spec import BusBinding, CrossbarDesign, SynthesisConfig
from repro.core.validate import audit_binding
from repro.errors import ConfigurationError
from repro.traffic.criticality import CriticalityReport
from repro.traffic.trace import TrafficTrace

__all__ = [
    "MERGE_POLICIES",
    "merge_criticality",
    "merge_problems",
    "merge_conflict_analyses",
    "ScenarioSideCheck",
    "RobustSideReport",
    "RobustSynthesisReport",
    "RobustSynthesizer",
]

MERGE_POLICIES = ("union", "worst-case", "weighted")


def _check_policy(policy: str) -> None:
    if policy not in MERGE_POLICIES:
        known = ", ".join(MERGE_POLICIES)
        raise ConfigurationError(
            f"unknown merge policy {policy!r}; available: {known}"
        )


def merge_criticality(reports: Sequence[CriticalityReport]) -> CriticalityReport:
    """Union of critical targets and forbidden pairs across scenarios."""
    targets: Set[int] = set()
    pairs: Set[Tuple[int, int]] = set()
    for report in reports:
        targets.update(report.critical_targets)
        pairs.update(report.conflicting_pairs)
    return CriticalityReport(
        critical_targets=tuple(sorted(targets)),
        conflicting_pairs=tuple(sorted(pairs)),
    )


def _check_shapes(problems: Sequence[CrossbarDesignProblem]) -> int:
    if not problems:
        raise ConfigurationError("need at least one scenario problem to merge")
    num_targets = problems[0].num_targets
    for problem in problems[1:]:
        if problem.num_targets != num_targets:
            raise ConfigurationError(
                "scenario problems disagree on the target count "
                f"({problem.num_targets} vs {num_targets}); a shared "
                "crossbar needs one platform shape across scenarios"
            )
    return num_targets


def merge_problems(
    problems: Sequence[CrossbarDesignProblem],
    policy: str = "union",
) -> CrossbarDesignProblem:
    """Fuse per-scenario design problems into one robust problem.

    ``union``/``weighted`` concatenate the scenarios' windows (each
    window keeps its own capacity, so scenarios with different analysis
    windows merge exactly); ``worst-case`` builds the element-wise
    maximum envelope over index-aligned, zero-padded windows.
    """
    _check_policy(policy)
    num_targets = _check_shapes(problems)
    criticality = merge_criticality([p.criticality for p in problems])
    names = problems[0].target_names

    if policy in ("union", "weighted"):
        comm = np.concatenate([p.comm for p in problems], axis=1)
        wo = np.concatenate([p.wo for p in problems], axis=2)
        capacities = np.concatenate([p.capacities for p in problems])
        return CrossbarDesignProblem(
            comm=comm,
            wo=wo,
            window_size=int(capacities.max()),
            criticality=criticality,
            target_names=names,
            capacities=capacities,
        )

    # worst-case envelope: align windows by index, pad tails with zeros
    num_windows = max(p.num_windows for p in problems)
    comm = np.zeros((num_targets, num_windows), dtype=np.int64)
    wo = np.zeros((num_targets, num_targets, num_windows), dtype=np.int64)
    capacities = np.ones(num_windows, dtype=np.int64)
    for problem in problems:
        width = problem.num_windows
        np.maximum(comm[:, :width], problem.comm, out=comm[:, :width])
        np.maximum(wo[:, :, :width], problem.wo, out=wo[:, :, :width])
        np.maximum(capacities[:width], problem.capacities, out=capacities[:width])
    # The envelope can pair one scenario's peak demand with another's
    # capacity; clamping to the per-window capacity keeps the problem
    # well-formed (comm <= capacity) while staying conservative.
    comm = np.minimum(comm, capacities[None, :])
    wo = np.minimum(wo, capacities[None, None, :])
    return CrossbarDesignProblem(
        comm=comm,
        wo=wo,
        window_size=int(capacities.max()),
        criticality=criticality,
        target_names=names,
        capacities=capacities,
    )


def merge_conflict_analyses(
    analyses: Sequence[ConflictAnalysis],
    policy: str = "union",
    weights: Optional[Sequence[float]] = None,
    min_weight: float = 0.5,
) -> ConflictAnalysis:
    """Merge per-scenario conflict matrices under a policy.

    ``union`` (and ``worst-case``, identical at the matrix level) keeps
    a pair that conflicts in *any* scenario -- the merged matrix
    dominates every input matrix element-wise. ``weighted`` keeps a pair
    only when the total weight of the scenarios exhibiting it reaches
    ``min_weight`` of the summed weights.
    """
    _check_policy(policy)
    if not analyses:
        raise ConfigurationError("need at least one conflict analysis to merge")
    num_targets = analyses[0].matrix.shape[0]
    for analysis in analyses[1:]:
        if analysis.matrix.shape[0] != num_targets:
            raise ConfigurationError(
                "conflict analyses disagree on the target count"
            )
    if weights is None:
        weights = [1.0] * len(analyses)
    if len(weights) != len(analyses):
        raise ConfigurationError(
            f"{len(weights)} weights for {len(analyses)} analyses"
        )
    if any(w < 0 for w in weights) or sum(weights) <= 0:
        raise ConfigurationError("weights must be non-negative with a positive sum")
    if not 0.0 < min_weight <= 1.0:
        raise ConfigurationError("min_weight must lie in (0, 1]")

    total_weight = float(sum(weights))
    pair_weight: Dict[Tuple[int, int], float] = {}
    pair_rules: Dict[Tuple[int, int], Set[str]] = {}
    for analysis, weight in zip(analyses, weights):
        for pair, rules in analysis.reasons.items():
            pair_weight[pair] = pair_weight.get(pair, 0.0) + weight
            pair_rules.setdefault(pair, set()).update(rules)

    matrix = np.zeros((num_targets, num_targets), dtype=bool)
    reasons: Dict[Tuple[int, int], frozenset] = {}
    for pair, weight in pair_weight.items():
        if policy == "weighted" and weight / total_weight < min_weight:
            continue
        i, j = pair
        matrix[i, j] = matrix[j, i] = True
        reasons[pair] = frozenset(pair_rules[pair])
    return ConflictAnalysis(matrix=matrix, reasons=reasons)


@dataclass(frozen=True)
class ScenarioSideCheck:
    """Replay of the shared binding against one scenario's own problem.

    ``capacity_violations`` lists Eq. 4 overflows (must be empty under
    the ``union`` policy -- the merged problem enforced every scenario's
    windows); ``separation_violations`` lists per-scenario conflict
    pairs the shared binding co-locates (possible under ``weighted``);
    ``max_bus_overlap`` is Eq. 11's objective evaluated on this
    scenario (the worst-case serialization-latency proxy).
    """

    name: str
    capacity_violations: Tuple[str, ...]
    separation_violations: Tuple[str, ...]
    max_bus_overlap: int

    @property
    def clean(self) -> bool:
        return not self.capacity_violations and not self.separation_violations


@dataclass(frozen=True)
class RobustSideReport:
    """One crossbar side of a robust synthesis run."""

    problem: CrossbarDesignProblem
    conflicts: ConflictAnalysis
    search: SearchOutcome
    binding: BusBinding
    scenario_checks: Tuple[ScenarioSideCheck, ...]
    stage_fingerprint: str = ""
    """Content fingerprint of the ``bind-merged`` pipeline stage that
    produced this side's solve (set by :meth:`design_from_artifacts`;
    empty when the solve did not run through the pipeline)."""

    @property
    def worst_case_overlap(self) -> int:
        """Largest per-scenario Eq. 11 objective under the shared binding."""
        if not self.scenario_checks:
            return self.binding.max_bus_overlap
        return max(check.max_bus_overlap for check in self.scenario_checks)


@dataclass(frozen=True)
class RobustSynthesisReport:
    """Complete record of one robust multi-scenario synthesis."""

    design: CrossbarDesign
    it_report: RobustSideReport
    ti_report: RobustSideReport
    policy: str
    scenario_names: Tuple[str, ...]

    @property
    def total_violations(self) -> int:
        """Violations across all scenarios and both crossbar sides."""
        return sum(
            len(check.capacity_violations) + len(check.separation_violations)
            for report in (self.it_report, self.ti_report)
            for check in report.scenario_checks
        )

    def summary(self) -> str:
        """Human-readable multi-line description of the outcome."""
        lines = [
            f"robust crossbar over {len(self.scenario_names)} scenarios "
            f"({self.policy} policy): {self.design.it.num_buses} IT buses + "
            f"{self.design.ti.num_buses} TI buses = {self.design.bus_count}",
            f"  merged IT conflicts: {self.it_report.conflicts.num_conflicts}, "
            f"TI conflicts: {self.ti_report.conflicts.num_conflicts}",
            f"  replay violations: {self.total_violations}",
        ]
        return "\n".join(lines)


def _empty_conflicts(num_targets: int) -> ConflictAnalysis:
    return ConflictAnalysis(
        matrix=np.zeros((num_targets, num_targets), dtype=bool), reasons={}
    )


class RobustSynthesizer:
    """Design one crossbar that serves every scenario of a suite.

    Phase 2 runs per scenario (each trace is windowed with its own
    analysis window), the merge policy fuses the per-scenario problems
    and conflict matrices, and phases 3-4 run once on the merged
    problem. The resulting shared binding is then *replayed* against
    every scenario's own problem (capacity audit + per-scenario conflict
    separation + Eq. 11 objective), so the report carries a per-scenario
    verdict, not just the merged one.
    """

    def __init__(
        self,
        config: Optional[SynthesisConfig] = None,
        policy: str = "union",
        min_weight: float = 0.5,
    ) -> None:
        _check_policy(policy)
        self.config = config or SynthesisConfig()
        self.policy = policy
        self.min_weight = min_weight

    def design(
        self,
        traces: Sequence[TrafficTrace],
        window_sizes: Sequence[int],
        names: Optional[Sequence[str]] = None,
        weights: Optional[Sequence[float]] = None,
    ) -> RobustSynthesisReport:
        """Run the robust flow over per-scenario full-crossbar traces."""
        if not traces:
            raise ConfigurationError("need at least one scenario trace")
        if len(window_sizes) != len(traces):
            raise ConfigurationError(
                f"{len(window_sizes)} windows for {len(traces)} traces"
            )
        return self.design_from_problems(
            [
                CrossbarDesignProblem.from_trace(trace, window)
                for trace, window in zip(traces, window_sizes)
            ],
            [
                CrossbarDesignProblem.from_trace(trace.mirrored(), window)
                for trace, window in zip(traces, window_sizes)
            ],
            names=names,
            weights=weights,
        )

    def design_from_problems(
        self,
        it_problems: Sequence[CrossbarDesignProblem],
        ti_problems: Sequence[CrossbarDesignProblem],
        names: Optional[Sequence[str]] = None,
        weights: Optional[Sequence[float]] = None,
    ) -> RobustSynthesisReport:
        """Robust phases 3-4 from pre-built per-scenario problems.

        ``it_problems[k]`` and ``ti_problems[k]`` are the two crossbar
        sides of scenario ``k`` (callers that already windowed every
        trace -- e.g. the suite runner -- skip the duplicate Phase 2).
        """
        if not it_problems or len(it_problems) != len(ti_problems):
            raise ConfigurationError(
                "need matching non-empty IT and TI problem lists"
            )
        names = self._check_names(names, len(it_problems))
        it_report = self._design_side(list(it_problems), names, weights)
        ti_report = self._design_side(list(ti_problems), names, weights)
        return self._assemble(it_report, ti_report, names)

    def design_from_artifacts(
        self,
        pipeline,
        it_sides: Sequence[tuple],
        ti_sides: Sequence[tuple],
        names: Optional[Sequence[str]] = None,
        weights: Optional[Sequence[float]] = None,
    ) -> RobustSynthesisReport:
        """The incremental robust path, from cached pipeline artifacts.

        ``it_sides[k]`` / ``ti_sides[k]`` are this side's
        ``(WindowedAnalysis, ConflictArtifact)`` pair for scenario ``k``
        (see :class:`repro.pipeline.PipelineRunner`). The per-scenario
        conflict matrices are *not* recomputed -- they come from the
        artifacts, which an unchanged scenario serves from cache -- and
        the merged search/binding solve runs through the pipeline's
        ``bind-merged`` stage, content-addressed by the per-scenario
        analysis fingerprints: re-running an unchanged suite performs
        zero solves, and editing one scenario re-solves only the merge.
        The cache hit/miss breakdown lands in the pipeline's stage
        counters (``pipeline.counters``).
        """
        if not it_sides or len(it_sides) != len(ti_sides):
            raise ConfigurationError(
                "need matching non-empty IT and TI artifact lists"
            )
        names = self._check_names(names, len(it_sides))
        merge_spec = self._merge_spec(weights)
        reports = []
        for sides in (it_sides, ti_sides):
            windows = [windowed for windowed, _conflicts in sides]
            conflict_artifacts = [conflicts for _windowed, conflicts in sides]
            upstream = [w.fingerprint for w in windows] + [
                c.fingerprint for c in conflict_artifacts
            ]

            def solver(problem, conflicts, _upstream=upstream):
                artifact = pipeline.bind_merged(
                    problem, conflicts, self.config, _upstream, merge_spec
                )
                return artifact.search, artifact.binding, artifact.fingerprint

            reports.append(
                self._design_side(
                    [w.problem for w in windows],
                    names,
                    weights,
                    per_scenario_conflicts=[
                        c.conflicts for c in conflict_artifacts
                    ],
                    solver=solver,
                )
            )
        return self._assemble(reports[0], reports[1], names)

    def _merge_spec(self, weights: Optional[Sequence[float]]) -> dict:
        """The merge-stage configuration slice for content addressing."""
        spec: dict = {"policy": self.policy}
        if self.policy == "weighted":
            spec["weights"] = None if weights is None else list(weights)
            spec["min_weight"] = self.min_weight
        if self.policy == "worst-case":
            # The envelope derives its conflicts from the merged problem,
            # so the conflict-stage knobs re-enter the key here.
            spec["overlap_threshold"] = self.config.overlap_threshold
            spec["use_criticality"] = self.config.use_criticality
        return spec

    @staticmethod
    def _check_names(
        names: Optional[Sequence[str]], count: int
    ) -> Sequence[str]:
        if names is None:
            names = [f"scenario-{index}" for index in range(count)]
        if len(names) != count:
            raise ConfigurationError(
                f"{len(names)} names for {count} scenarios"
            )
        return names

    def _assemble(
        self,
        it_report: RobustSideReport,
        ti_report: RobustSideReport,
        names: Sequence[str],
    ) -> RobustSynthesisReport:
        design = CrossbarDesign(
            it=it_report.binding,
            ti=ti_report.binding,
            label=f"robust-{self.policy}",
        )
        return RobustSynthesisReport(
            design=design,
            it_report=it_report,
            ti_report=ti_report,
            policy=self.policy,
            scenario_names=tuple(names),
        )

    def _design_side(
        self,
        problems: List[CrossbarDesignProblem],
        names: Sequence[str],
        weights: Optional[Sequence[float]],
        per_scenario_conflicts: Optional[List[ConflictAnalysis]] = None,
        solver=None,
    ) -> RobustSideReport:
        if per_scenario_conflicts is None:
            per_scenario_conflicts = [
                build_conflicts(problem, self.config) for problem in problems
            ]
        merged_problem = merge_problems(problems, self.policy)
        if self.policy == "worst-case":
            # The envelope problem has its own (stronger) window data, so
            # its conflicts are derived from the envelope directly.
            merged_conflicts = build_conflicts(merged_problem, self.config)
        else:
            merged_conflicts = merge_conflict_analyses(
                per_scenario_conflicts,
                policy=self.policy,
                weights=weights,
                min_weight=self.min_weight,
            )
        # The incremental path's solver is a content-addressed pipeline
        # stage running the same solve (reused when its inputs are).
        search, binding, fingerprint = (solver or self._solve)(
            merged_problem, merged_conflicts
        )
        checks = tuple(
            self._check_scenario(name, problem, conflicts, binding)
            for name, problem, conflicts in zip(
                names, problems, per_scenario_conflicts
            )
        )
        return RobustSideReport(
            problem=merged_problem,
            conflicts=merged_conflicts,
            search=search,
            binding=binding,
            scenario_checks=checks,
            stage_fingerprint=fingerprint,
        )

    def _solve(
        self, problem: CrossbarDesignProblem, conflicts: ConflictAnalysis
    ) -> Tuple[SearchOutcome, BusBinding, str]:
        """The one-shot solve: phase 4 outside any pipeline stage."""
        search, binding, _proof = bind_minimum_buses(
            problem, conflicts, self.config
        )
        return search, binding, ""

    def _check_scenario(
        self,
        name: str,
        problem: CrossbarDesignProblem,
        conflicts: ConflictAnalysis,
        binding: BusBinding,
    ) -> ScenarioSideCheck:
        # The two violation classes are computed separately (rather than
        # parsed out of one audit's message strings): capacity comes
        # from a conflict-free audit (Eq. 3/4 only; maxtb is audited on
        # the merged problem), separation directly from this scenario's
        # conflict pairs.
        capacity = tuple(
            audit_binding(
                problem,
                _empty_conflicts(problem.num_targets),
                binding.binding,
                max_targets_per_bus=None,
            )
        )
        separation = tuple(
            f"conflicting targets {i} and {j} share bus {binding.binding[i]} "
            f"({','.join(sorted(conflicts.reasons[i, j]))})"
            for (i, j) in conflicts.conflicting_pairs()
            if binding.binding[i] == binding.binding[j]
        )
        return ScenarioSideCheck(
            name=name,
            capacity_violations=capacity,
            separation_violations=separation,
            max_bus_overlap=binding_overlap_objective(problem, binding.binding),
        )
