"""The literal Eq. 3-11 MILP as the reference answer for a binding problem.

The paper's Sec. 6 method asks two questions of one conflict-annotated
problem: does a binding into ``k`` buses exist (MILP1), and what is the
least maximum per-bus overlap at the chosen ``k`` (MILP2)?
:func:`milp1_feasible` and :func:`milp2_objective` answer both on
HiGHS over the literal model. :func:`is_model_point` asks the model
whether a binding the assignment DFS returned is one of its feasible
points, and :func:`assert_matches_dfs` checks a whole Sec. 6 outcome of
the DFS with the three.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.preprocess import ConflictAnalysis
from repro.core.problem import CrossbarDesignProblem
from repro.core.search import SearchOutcome
from repro.core.spec import BusBinding
from tests.oracles.milp.formulation import (
    CrossbarModel,
    build_binding_model,
    build_feasibility_model,
)
from tests.oracles.milp.solution import SolveStatus
from tests.oracles.milp.solver import solve_milp

__all__ = [
    "milp1_feasible",
    "milp2_objective",
    "is_model_point",
    "assert_matches_dfs",
]


def milp1_feasible(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    num_buses: int,
    max_targets_per_bus: Optional[int] = None,
) -> bool:
    """MILP1's verdict: whether any binding into ``num_buses`` exists."""
    crossbar = build_feasibility_model(
        problem, conflicts, num_buses, max_targets_per_bus
    )
    solution = solve_milp(crossbar.model)
    if solution.status not in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE):
        raise AssertionError(f"MILP1 undecided: {solution.status}")
    return solution.status is SolveStatus.OPTIMAL


def milp2_objective(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    num_buses: int,
    max_targets_per_bus: Optional[int] = None,
) -> Optional[int]:
    """MILP2's proven optimum (Eq. 11's ``maxov``), or ``None`` when no
    binding into ``num_buses`` exists."""
    crossbar = build_binding_model(problem, conflicts, num_buses, max_targets_per_bus)
    solution = solve_milp(crossbar.model)
    if solution.status is SolveStatus.INFEASIBLE:
        return None
    if solution.status is not SolveStatus.OPTIMAL:
        raise AssertionError(f"MILP2 undecided: {solution.status}")
    return int(round(solution.objective))


def is_model_point(
    crossbar: CrossbarModel,
    binding: Sequence[int],
    objective: Optional[float] = None,
) -> bool:
    """Whether ``binding`` (with ``maxov`` at ``objective``) satisfies
    every row of ``crossbar``.

    The point sets the one-hot ``x``, the ``sb`` products it implies
    and, for a binding model, ``maxov``.
    """
    num_buses = len(crossbar.x[0]) if crossbar.x else 0
    if len(binding) != len(crossbar.x):
        return False
    if any(bus < 0 or bus >= num_buses for bus in binding):
        return False
    values = {}
    for i, row in enumerate(crossbar.x):
        for k, var in enumerate(row):
            values[var] = 1.0 if binding[i] == k else 0.0
    for (i, j, k), var in crossbar.sb.items():
        values[var] = 1.0 if binding[i] == k == binding[j] else 0.0
    if crossbar.maxov is not None:
        if objective is None:
            return False
        values[crossbar.maxov] = float(objective)
    form = crossbar.model.to_standard_form()
    point = np.array([values.get(var, 0.0) for var in form.variables])
    return form.check_point(point)


def assert_matches_dfs(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    max_targets_per_bus: Optional[int],
    search: SearchOutcome,
    binding: BusBinding,
) -> None:
    """Check the DFS's Sec. 6 outcome against the literal model.

    Every probe's verdict is MILP1's; one bus fewer than the minimum is
    infeasible for MILP1 too; the search witness is a point of MILP1 at
    the minimum; the optimized binding's overlap is MILP2's optimum,
    and the binding with ``maxov`` at that overlap is a point of MILP2.
    """
    maxtb = max_targets_per_bus
    for num_buses, verdict in search.probes.items():
        milp = milp1_feasible(problem, conflicts, num_buses, maxtb)
        assert milp == verdict, f"MILP1 disagrees with the DFS at {num_buses} buses"
    least = search.num_buses
    if least > 1 and least - 1 not in search.probes:
        assert not milp1_feasible(problem, conflicts, least - 1, maxtb)
    feasibility = build_feasibility_model(problem, conflicts, least, maxtb)
    assert is_model_point(feasibility, search.feasible_binding)
    objective = milp2_objective(problem, conflicts, least, maxtb)
    assert objective == binding.max_bus_overlap
    optimization = build_binding_model(problem, conflicts, least, maxtb)
    assert is_model_point(optimization, binding.binding, objective)
