"""Crossbar configuration search (paper Sec. 6, first step).

The minimum feasible bus count is located by binary search over
configurations, testing each candidate with the feasibility problem
(the paper's MILP1, answered by the assignment DFS of
:mod:`repro.core.assignment`). Feasibility is monotone in the bus
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
from repro.core.instrumentation import record_solve
from repro.core.preprocess import ConflictAnalysis
from repro.core.problem import CrossbarDesignProblem
from repro.core.spec import SynthesisConfig
from repro.errors import SynthesisError

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


def _is_feasible(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    num_buses: int,
    config: SynthesisConfig,
):
    """Feasibility check; returns a witness binding or None."""
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
) -> SearchOutcome:
    """Binary-search the minimum feasible crossbar configuration."""
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
        witness = _is_feasible(problem, conflicts, k, config)
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
