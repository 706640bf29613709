"""The paper's literal MILP, kept as the binding solver's test oracle.

The paper solves its crossbar feasibility and binding formulations with
ILOG CPLEX. This package is the offline stand-in: a small modeling
layer (:class:`~tests.oracles.milp.model.Model`) that keeps the paper's
Eqs. 3-11 readable as code (:mod:`tests.oracles.milp.formulation`),
solution/status objects, and one exact solver,
:func:`~tests.oracles.milp.solver.solve_milp`, which hands the whole
model to HiGHS through ``scipy.optimize.milp``.

The product never imports it: ``repro`` binds with the assignment DFS
(:mod:`repro.core.assignment`), and the tests check the DFS against
this model (:mod:`tests.oracles.milp.reference`) and the model against
brute-force enumeration. scipy is a test-only dependency.
"""

from tests.oracles.milp.expr import LinExpr, Variable, VarType
from tests.oracles.milp.model import Constraint, Model, Sense, StandardForm
from tests.oracles.milp.solution import Solution, SolveStatus, solution_from_vector
from tests.oracles.milp.solver import BranchBoundOptions, solve_milp

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
