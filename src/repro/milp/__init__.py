"""Mixed-integer linear programming substrate.

The paper solves its crossbar feasibility and binding formulations with
ILOG CPLEX. This subpackage is the offline stand-in: a small modeling
layer (:class:`~repro.milp.model.Model`) that keeps the paper's
Eqs. 3-11 readable as code, solution/status objects, and one exact
solver, :func:`~repro.milp.solver.solve_milp`, which hands the whole
model to HiGHS through ``scipy.optimize.milp``.

Importing this package loads no scipy module; the solve imports it.
The default synthesis backend (the assignment DFS in
:mod:`repro.core.assignment`) never enters the solver, and the test
suite checks the two against each other and against brute-force
enumeration.
"""

from repro.milp.expr import LinExpr, Variable, VarType
from repro.milp.model import Constraint, Model, Sense, StandardForm
from repro.milp.solution import Solution, SolveStatus, solution_from_vector
from repro.milp.solver import BranchBoundOptions, solve_milp

__all__ = [
    "Variable",
    "VarType",
    "LinExpr",
    "Model",
    "Constraint",
    "Sense",
    "StandardForm",
    "Solution",
    "SolveStatus",
    "solution_from_vector",
    "solve_milp",
    "BranchBoundOptions",
]
