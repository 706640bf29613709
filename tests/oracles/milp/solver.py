"""The exact MILP solve: the whole model handed to HiGHS.

:func:`solve_milp` is the single entry point for every MILP in the
oracle. The paper solves its two MILPs (Sec. 6: MILP1, the feasibility
check, and MILP2, the binding optimization) with ILOG CPLEX; here the
model is passed whole to HiGHS native branch and bound through
``scipy.optimize.milp``.

Feasibility problems (MILP1) arrive with a zero objective, which HiGHS
solves as "any feasible point is optimal".

HiGHS is exact, so verdicts and optimal objective values are
well-defined; the optimal *point* is not when the optimum is
degenerate. The oracle therefore compares verdicts and objectives with
the assignment DFS, and checks the DFS's own points against the model
(:meth:`~tests.oracles.milp.model.StandardForm.check_point`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import optimize

from repro.errors import SolverError
from tests.oracles.milp.model import Model
from tests.oracles.milp.solution import Solution, SolveStatus, solution_from_vector

__all__ = ["BranchBoundOptions", "solve_milp"]


@dataclass(frozen=True)
class BranchBoundOptions:
    """Limits for :func:`solve_milp`.

    Attributes
    ----------
    node_limit:
        Maximum number of branch-and-bound nodes before giving up.
    time_limit:
        Wall-clock deadline in seconds (``None`` disables, the
        default), mapped onto HiGHS's own time limit. When it expires
        the solve returns gracefully: the best incumbent so far as a
        ``FEASIBLE`` solution flagged ``timed_out``, or a bare
        ``TIME_LIMIT`` status when no incumbent exists yet.
    """

    node_limit: int = 200_000
    time_limit: Optional[float] = None


def solve_milp(model: Model, options: Optional[BranchBoundOptions] = None) -> Solution:
    """Solve ``model`` to optimality with HiGHS.

    Reported ``nodes`` is HiGHS's own MIP node count.
    """
    options = options or BranchBoundOptions()
    form = model.to_standard_form()
    constraints = []
    if form.a_ub.size:
        constraints.append(optimize.LinearConstraint(form.a_ub, -np.inf, form.b_ub))
    if form.a_eq.size:
        constraints.append(optimize.LinearConstraint(form.a_eq, form.b_eq, form.b_eq))

    milp_options = {"node_limit": int(options.node_limit)}
    if options.time_limit is not None:
        milp_options["time_limit"] = float(options.time_limit)

    result = optimize.milp(
        c=form.objective,
        integrality=form.integer_mask.astype(int),
        bounds=optimize.Bounds(form.lower, form.upper),
        constraints=constraints or None,
        options=milp_options,
    )
    nodes = int(getattr(result, "mip_node_count", 0) or 0)

    if result.status == 0:
        return solution_from_vector(
            SolveStatus.OPTIMAL, result.x, float(result.fun), form, nodes
        )
    if result.status == 1:
        # A node or time limit fired. HiGHS folds both into one status;
        # attribute it to the deadline when one was set, else to the
        # node budget.
        timed_out = options.time_limit is not None
        if result.x is not None:
            return solution_from_vector(
                SolveStatus.FEASIBLE,
                result.x,
                float(result.fun),
                form,
                nodes,
                timed_out=timed_out,
            )
        status = SolveStatus.TIME_LIMIT if timed_out else SolveStatus.NODE_LIMIT
        return Solution(status, nodes=nodes, timed_out=timed_out)
    if result.status == 2:
        return Solution(SolveStatus.INFEASIBLE, nodes=nodes)
    if result.status == 3:
        return Solution(SolveStatus.UNBOUNDED, nodes=nodes)
    raise SolverError(
        f"scipy.optimize.milp failed: status={result.status} ({result.message})"
    )
