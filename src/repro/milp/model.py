"""Optimization model container and standard-form conversion.

A :class:`Model` owns variables and constraints and converts itself to the
dense matrix form the solver hands to HiGHS::

    minimize    c @ x
    subject to  A_ub @ x <= b_ub
                A_eq @ x == b_eq
                lower <= x <= upper

Maximization is expressed by negating the objective at the call site (the
paper's formulations only minimize). Feasibility problems simply leave the
objective at zero, mirroring MILP1 in Section 6 of the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.errors import ModelError
from repro.milp.expr import LinExpr, Number, Variable, VarType

__all__ = ["Sense", "Constraint", "StandardForm", "Model"]


class Sense(enum.Enum):
    """Constraint comparison sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


class Constraint:
    """A linear constraint ``expr (<=|>=|==) 0`` in homogeneous form.

    Built by comparing a :class:`~repro.milp.expr.LinExpr` with a scalar or
    another expression; the right-hand side is folded into the expression's
    constant, so the stored form is always ``expr sense 0``.
    """

    __slots__ = ("expr", "sense", "name")

    def __init__(self, expr: LinExpr, sense: Sense, name: str = "") -> None:
        self.expr = expr
        self.sense = sense
        self.name = name

    def violated_by(self, assignment: Dict[Variable, float], tol: float = 1e-6) -> bool:
        """Whether an assignment violates this constraint beyond ``tol``."""
        lhs = self.expr.value(assignment)
        if self.sense is Sense.LE:
            return lhs > tol
        if self.sense is Sense.GE:
            return lhs < -tol
        return abs(lhs) > tol

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" [{self.name}]" if self.name else ""
        return f"<Constraint{label} {self.expr!r} {self.sense.value} 0>"


@dataclass(frozen=True)
class StandardForm:
    """Dense matrices of a model, ready for the solver."""

    objective: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integer_mask: np.ndarray
    variables: Sequence[Variable]

    def check_point(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """Whether ``x`` is a feasible *integral* point of this form.

        This is the gate every warm-start hint passes through before a
        solver is allowed to use it: hints are advisory, so a stale
        binding that violates the (possibly edited) constraints is
        simply rejected here rather than corrupting the solve.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != self.lower.shape:
            return False
        if (x < self.lower - tol).any() or (x > self.upper + tol).any():
            return False
        integral = x[self.integer_mask]
        if integral.size and np.abs(integral - np.round(integral)).max() > tol:
            return False
        if self.a_ub.size and (self.a_ub @ x > self.b_ub + tol).any():
            return False
        if self.a_eq.size and np.abs(self.a_eq @ x - self.b_eq).max() > tol:
            return False
        return True


class Model:
    """A mixed-integer linear program under construction."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._variables: List[Variable] = []
        self._constraints: List[Constraint] = []
        self._objective = LinExpr()

    # -- variables ------------------------------------------------------------

    def _new_var(self, name, lower, upper, vtype) -> Variable:
        if any(existing.name == name for existing in self._variables):
            raise ModelError(f"duplicate variable name {name!r}")
        var = Variable(name, lower, upper, vtype, index=len(self._variables))
        self._variables.append(var)
        return var

    def binary_var(self, name: str) -> Variable:
        """Add a 0/1 variable (paper Eq. 9 domain)."""
        return self._new_var(name, 0.0, 1.0, VarType.BINARY)

    def integer_var(
        self, name: str, lower: float = 0.0, upper: float = float("inf")
    ) -> Variable:
        """Add a general integer variable."""
        return self._new_var(name, lower, upper, VarType.INTEGER)

    def continuous_var(
        self, name: str, lower: float = 0.0, upper: float = float("inf")
    ) -> Variable:
        """Add a continuous variable."""
        return self._new_var(name, lower, upper, VarType.CONTINUOUS)

    @property
    def variables(self) -> List[Variable]:
        """All variables in column order."""
        return list(self._variables)

    @property
    def constraints(self) -> List[Constraint]:
        """All constraints in insertion order."""
        return list(self._constraints)

    # -- constraints and objective ---------------------------------------------

    def add(self, constraint: Constraint, name: str = "") -> Constraint:
        """Add a constraint built via expression comparison."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                f"Model.add expects a Constraint, got {type(constraint).__name__}"
            )
        for var in constraint.expr.terms:
            self._check_owned(var)
        if name:
            constraint.name = name
        self._constraints.append(constraint)
        return constraint

    def minimize(self, objective: Union[LinExpr, Variable, Number]) -> None:
        """Set the objective to minimize (replaces any previous one)."""
        if isinstance(objective, Variable):
            objective = objective.to_expr()
        elif isinstance(objective, (int, float)):
            objective = LinExpr(constant=objective)
        for var in objective.terms:
            self._check_owned(var)
        self._objective = objective

    @property
    def objective(self) -> LinExpr:
        """Current minimization objective (zero for feasibility problems)."""
        return self._objective

    def _check_owned(self, var: Variable) -> None:
        if var.index >= len(self._variables) or self._variables[var.index] is not var:
            raise ModelError(
                f"variable {var.name!r} does not belong to model {self.name!r}"
            )

    # -- conversion -------------------------------------------------------------

    def to_standard_form(self) -> StandardForm:
        """Convert to dense matrices."""
        num_vars = len(self._variables)
        lower = np.array([var.lower for var in self._variables], dtype=float)
        upper = np.array([var.upper for var in self._variables], dtype=float)
        objective = np.zeros(num_vars)
        for var, coeff in self._objective.terms.items():
            objective[var.index] = coeff

        ub_rows: List[np.ndarray] = []
        ub_rhs: List[float] = []
        eq_rows: List[np.ndarray] = []
        eq_rhs: List[float] = []
        for constraint in self._constraints:
            row = np.zeros(num_vars)
            for var, coeff in constraint.expr.terms.items():
                row[var.index] = coeff
            rhs = -constraint.expr.constant
            if constraint.sense is Sense.LE:
                ub_rows.append(row)
                ub_rhs.append(rhs)
            elif constraint.sense is Sense.GE:
                ub_rows.append(-row)
                ub_rhs.append(-rhs)
            else:
                eq_rows.append(row)
                eq_rhs.append(rhs)

        integer_mask = np.array(
            [var.is_integral for var in self._variables], dtype=bool
        )
        return StandardForm(
            objective=objective,
            a_ub=np.vstack(ub_rows) if ub_rows else np.zeros((0, num_vars)),
            b_ub=np.array(ub_rhs),
            a_eq=np.vstack(eq_rows) if eq_rows else np.zeros((0, num_vars)),
            b_eq=np.array(eq_rhs),
            lower=lower,
            upper=upper,
            integer_mask=integer_mask,
            variables=list(self._variables),
        )

    def check_assignment(
        self, assignment: Dict[Variable, float], tol: float = 1e-6
    ) -> List[Constraint]:
        """Return the constraints an assignment violates (audit helper)."""
        return [
            constraint
            for constraint in self._constraints
            if constraint.violated_by(assignment, tol)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Model {self.name!r}: {len(self._variables)} vars, "
            f"{len(self._constraints)} constraints>"
        )
