"""MILP solution and status objects."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from tests.oracles.milp.expr import Variable

__all__ = ["SolveStatus", "Solution", "solution_from_vector"]


class SolveStatus(enum.Enum):
    """Outcome of a MILP solve."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # stopped early with an incumbent (node/time limit)
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NODE_LIMIT = "node-limit"  # stopped early without an incumbent
    TIME_LIMIT = "time-limit"  # deadline expired without an incumbent


@dataclass
class Solution:
    """Result of :func:`tests.oracles.milp.solver.solve_milp`.

    Attributes
    ----------
    status:
        Solve outcome; values are meaningful only for ``OPTIMAL`` and
        ``FEASIBLE``.
    objective:
        Objective value of the returned point.
    values:
        Mapping from variable to its value (integers are exact).
    nodes:
        Number of branch-and-bound nodes explored.
    timed_out:
        Whether a wall-clock deadline (``BranchBoundOptions.time_limit``)
        expired before the search completed. A timed-out solution may
        still be ``FEASIBLE`` -- the best incumbent found so far -- but
        carries no optimality guarantee.
    """

    status: SolveStatus
    objective: Optional[float] = None
    values: Dict[Variable, float] = field(default_factory=dict)
    nodes: int = 0
    timed_out: bool = False

    @property
    def is_feasible(self) -> bool:
        """Whether a usable assignment is available."""
        return self.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)

    def __getitem__(self, var: Variable) -> float:
        return self.values[var]

    def value(self, var: Variable, default: float = 0.0) -> float:
        """Value of ``var`` or ``default`` when absent."""
        return self.values.get(var, default)


def solution_from_vector(
    status: SolveStatus,
    x,
    objective: Optional[float],
    form,
    nodes: int,
    timed_out: bool = False,
) -> Solution:
    """Build a :class:`Solution` from a raw variable vector.

    ``form`` is the model's :class:`~tests.oracles.milp.model.StandardForm`;
    integral variables are rounded to exact integers (every backend
    returns them within tolerance of integrality). With ``x`` ``None``
    the solution carries only the status -- infeasible/unbounded/limit
    outcomes.
    """
    if x is None:
        return Solution(status, nodes=nodes, timed_out=timed_out)
    values: Dict[Variable, float] = {}
    for var, value in zip(form.variables, x):
        if var.is_integral:
            values[var] = float(round(value))
        else:
            values[var] = float(value)
    return Solution(
        status,
        objective=float(objective),
        values=values,
        nodes=nodes,
        timed_out=timed_out,
    )
