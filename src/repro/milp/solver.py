"""The exact MILP solve: the whole model handed to HiGHS.

:func:`solve_milp` is the single entry point for every MILP in the
platform. The paper solves its two MILPs (Sec. 6: MILP1, the
feasibility check, and MILP2, the binding optimization) with ILOG
CPLEX; here the model is passed whole to HiGHS native branch and bound
through ``scipy.optimize.milp``. scipy is imported inside the solve, so
only a command that actually runs the literal MILP pays for loading it.

Feasibility problems (MILP1) arrive with a zero objective, which HiGHS
solves as "any feasible point is optimal" -- exactly the semantics of
``feasibility_only``.

Warm starts: ``solve_milp`` accepts an optional ``warm_values`` hint (a
variable -> value mapping, typically rebuilt from a cached binding).
Hints are *advisory*: the hint is validated against the current model
(:meth:`~repro.milp.model.StandardForm.check_point`) and silently
ignored when stale or infeasible. In feasibility mode a valid hint *is*
the answer and short-circuits the solve; otherwise it enters as an
objective cutoff row ``c @ x <= c @ warm`` (``scipy.optimize.milp``
takes no MIP start), pruning the tree above the incumbent without ever
excluding the optimum.

HiGHS is exact, so verdicts and optimal objective values are
well-defined; the optimal *point* is not when the optimum is
degenerate. Callers that must be byte-identical (reports, artifacts)
re-derive a canonical solution from the objective value -- see
:mod:`repro.core.binding`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import SolverError
from repro.milp.expr import Variable
from repro.milp.model import Model
from repro.milp.solution import Solution, SolveStatus, solution_from_vector
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing

__all__ = ["BranchBoundOptions", "solve_milp"]

_CUTOFF_SLACK = 1e-6
"""Slack added to the warm-incumbent cutoff so the incumbent itself
stays feasible under floating-point evaluation of ``c @ x``."""

# Recorded once per solve, never per node. The warm-start tests diff
# the family total across solves.
_SOLVER_NODES = _metrics.counter(
    "repro_solver_nodes_total",
    "Branch-and-bound nodes explored across all MILP solves.",
)


@dataclass(frozen=True)
class BranchBoundOptions:
    """Limits for :func:`solve_milp`.

    Attributes
    ----------
    node_limit:
        Maximum number of branch-and-bound nodes before giving up.
    feasibility_only:
        The model is a pure feasibility check (the paper's MILP1,
        Eq. 10): a valid warm hint answers it without a solve.
    time_limit:
        Wall-clock deadline in seconds (``None`` disables, the
        default), mapped onto HiGHS's own time limit. When it expires
        the solve returns gracefully: the best incumbent so far as a
        ``FEASIBLE`` solution flagged ``timed_out``, or a bare
        ``TIME_LIMIT`` status when no incumbent exists yet.
    """

    node_limit: int = 200_000
    feasibility_only: bool = False
    time_limit: Optional[float] = None


def solve_milp(
    model: Model,
    options: Optional[BranchBoundOptions] = None,
    warm_values: Optional[Dict[Variable, float]] = None,
) -> Solution:
    """Solve ``model`` to optimality with HiGHS.

    ``warm_values`` is an advisory warm-start hint (see the module
    docstring). Reported ``nodes`` is HiGHS's own MIP node count.
    """
    options = options or BranchBoundOptions()
    with _tracing.span(
        "solver.milp", feasibility_only=options.feasibility_only
    ) as span_:
        solution = _solve(model, options, warm_values)
        span_.set_attr(nodes=solution.nodes, status=solution.status.name)
    _SOLVER_NODES.inc(solution.nodes)
    return solution


def _solve(
    model: Model,
    options: BranchBoundOptions,
    warm_values: Optional[Dict[Variable, float]],
) -> Solution:
    form = model.to_standard_form()
    warm_x = None
    if warm_values:
        x = np.array([warm_values.get(var, 0.0) for var in form.variables], dtype=float)
        if form.check_point(x):
            warm_x = x
    if warm_x is not None and options.feasibility_only:
        # A validated warm point *is* the answer to a feasibility
        # problem; skip the solve entirely (zero nodes).
        return solution_from_vector(
            SolveStatus.OPTIMAL,
            warm_x,
            float(form.objective @ warm_x),
            form,
            nodes=0,
        )

    from scipy.optimize import Bounds, LinearConstraint, milp

    a_ub, b_ub = form.a_ub, form.b_ub
    if warm_x is not None and form.objective.any():
        cutoff = float(form.objective @ warm_x) + _CUTOFF_SLACK
        a_ub = np.vstack([a_ub, form.objective[None, :]])
        b_ub = np.append(b_ub, cutoff)

    constraints = []
    if a_ub.size:
        constraints.append(LinearConstraint(a_ub, -np.inf, b_ub))
    if form.a_eq.size:
        constraints.append(LinearConstraint(form.a_eq, form.b_eq, form.b_eq))

    milp_options = {"node_limit": int(options.node_limit)}
    if options.time_limit is not None:
        milp_options["time_limit"] = float(options.time_limit)

    result = milp(
        c=form.objective,
        integrality=form.integer_mask.astype(int),
        bounds=Bounds(form.lower, form.upper),
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
