"""Crossbar configuration search (paper Sec. 6, first step).

The minimum feasible bus count is located by binary search over
configurations, testing each candidate with the feasibility problem
(MILP1 / the assignment solver). Feasibility is monotone in the bus
count -- any binding into ``k`` buses is also a binding into ``k + 1`` --
so binary search is exact.

The search range is tightened from below by two bounds computed in the
earlier phases: the window bandwidth bound (``ceil`` of peak aggregate
demand) and the conflict-clique bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.assignment import solve_assignment
from repro.core.formulation import build_feasibility_model
from repro.core.instrumentation import record_solve
from repro.core.preprocess import ConflictAnalysis
from repro.core.problem import CrossbarDesignProblem
from repro.core.spec import SynthesisConfig
from repro.errors import SolverError, SynthesisError
from repro.milp import SolveStatus, solve_milp

__all__ = ["SearchOutcome", "search_minimum_buses"]


@dataclass(frozen=True)
class SearchOutcome:
    """Result of the configuration search.

    Attributes
    ----------
    num_buses:
        The minimum feasible bus count.
    feasible_binding:
        The witness binding found at ``num_buses`` (not yet
        overlap-optimized).
    lower_bound:
        The analytic lower bound the search started from.
    probes:
        Map of candidate bus count -> feasibility verdict, recording the
        binary-search trajectory.
    """

    num_buses: int
    feasible_binding: tuple
    lower_bound: int
    probes: Dict[int, bool]


def _canonical_witness(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    num_buses: int,
    config: SynthesisConfig,
    crossbar_model,
    solution,
):
    """Re-derive a MILP feasibility witness deterministically.

    Exact solvers agree that a witness *exists* but not on which one
    they find, and the witness is serialized into binding artifacts --
    so byte-identity across backends (and across warm vs cold solves)
    requires deriving it from the verdict, not the solve: the same
    deterministic assignment DFS the default backend runs. Falls back
    to the MILP's own witness if the DFS exhausts its node budget; a
    DFS *proof* of infeasibility contradicting the MILP verdict is a
    solver bug and raises.
    """
    try:
        result = solve_assignment(
            problem,
            conflicts,
            num_buses,
            max_targets_per_bus=config.max_targets_per_bus,
            optimize=False,
            node_limit=config.node_limit,
        )
    except SolverError:
        return crossbar_model.extract_binding(solution)
    if not result.is_feasible:
        raise SynthesisError(
            f"MILP found {num_buses} buses feasible but the assignment "
            f"oracle proves them infeasible -- solver disagreement"
        )
    return result.binding


def _is_feasible(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    num_buses: int,
    config: SynthesisConfig,
    warm_binding=None,
):
    """Feasibility check; returns a witness binding or None.

    ``warm_binding`` is an advisory hint: when it still satisfies the
    current model it short-circuits the MILP probe (a valid binding
    *is* a feasibility proof); when stale it is rejected during
    validation and the probe runs cold. Either way the returned witness
    is canonical, so search outcomes stay byte-identical.
    """
    if config.backend == "milp":
        from repro.core.binding import milp_solver_options

        options = milp_solver_options(config, feasibility_only=True)
        record_solve("feasibility", backend="highs")
        crossbar_model = build_feasibility_model(
            problem, conflicts, num_buses, config.max_targets_per_bus
        )
        warm_values = None
        if warm_binding is not None and len(warm_binding) == problem.num_targets:
            warm_values = crossbar_model.warm_values(warm_binding)
        solution = solve_milp(
            crossbar_model.model, options, warm_values=warm_values
        )
        if solution.status is SolveStatus.NODE_LIMIT:
            raise SynthesisError(
                f"MILP feasibility check for {num_buses} buses exhausted the "
                f"node budget"
            )
        if solution.is_feasible:
            return _canonical_witness(
                problem, conflicts, num_buses, config, crossbar_model, solution
            )
        return None
    record_solve("feasibility")
    result = solve_assignment(
        problem,
        conflicts,
        num_buses,
        max_targets_per_bus=config.max_targets_per_bus,
        optimize=False,
        node_limit=config.node_limit,
    )
    return result.binding if result.is_feasible else None


def search_minimum_buses(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    config: SynthesisConfig,
    warm_binding=None,
) -> SearchOutcome:
    """Binary-search the minimum feasible crossbar configuration.

    ``warm_binding`` (a cached binding from a similar earlier problem)
    is forwarded to every feasibility probe as an advisory warm start;
    it can only accelerate probes whose bus count covers it and whose
    constraints it still satisfies -- verdicts, and therefore the
    outcome, never depend on it.
    """
    num_targets = problem.num_targets
    lower = max(
        problem.bandwidth_lower_bound(),
        conflicts.clique_lower_bound(),
    )
    if config.max_targets_per_bus is not None:
        lower = max(
            lower,
            -(-num_targets // config.max_targets_per_bus),  # ceil division
        )
    lower = min(lower, num_targets)
    probes: Dict[int, bool] = {}
    witnesses: Dict[int, tuple] = {}

    def probe(k: int) -> bool:
        witness = _is_feasible(problem, conflicts, k, config, warm_binding)
        probes[k] = witness is not None
        if witness is not None:
            witnesses[k] = witness
        return witness is not None

    if not probe(num_targets):
        raise SynthesisError(
            "even the full crossbar is infeasible: a single target exceeds "
            "the window bandwidth or conflicts with itself -- check the "
            "window size"
        )
    low, high = lower, num_targets  # invariant: high is feasible
    if probe(low):
        high = low
    else:
        while high - low > 1:
            mid = (low + high) // 2
            if probe(mid):
                high = mid
            else:
                low = mid
    binding = witnesses[high]
    return SearchOutcome(
        num_buses=high,
        feasible_binding=tuple(binding),
        lower_bound=lower,
        probes=dict(sorted(probes.items())),
    )
