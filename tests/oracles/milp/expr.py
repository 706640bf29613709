"""Decision variables and linear expressions.

The modeling layer follows the conventions of mainstream MILP APIs:
variables combine into :class:`LinExpr` objects through ``+``, ``-`` and
scalar ``*``; comparing an expression with ``<=``, ``>=`` or ``==``
produces a :class:`~tests.oracles.milp.model.Constraint` ready to be added to a
:class:`~tests.oracles.milp.model.Model`.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Iterable, Union

from repro.errors import ModelError

__all__ = ["VarType", "Variable", "LinExpr"]

Number = Union[int, float]


class VarType(enum.Enum):
    """Domain of a decision variable."""

    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"


class Variable:
    """A decision variable owned by a :class:`~tests.oracles.milp.model.Model`.

    Construct variables through ``Model.binary_var`` and friends rather
    than directly; the model assigns the column ``index``.
    """

    __slots__ = ("name", "lower", "upper", "vtype", "index")

    def __init__(
        self,
        name: str,
        lower: float,
        upper: float,
        vtype: VarType,
        index: int,
    ) -> None:
        if not name:
            raise ModelError("variable name must be non-empty")
        if math.isnan(lower) or math.isnan(upper):
            raise ModelError(f"variable {name!r} has NaN bounds")
        if lower > upper:
            raise ModelError(f"variable {name!r} has empty domain [{lower}, {upper}]")
        self.name = name
        self.lower = float(lower)
        self.upper = float(upper)
        self.vtype = vtype
        self.index = index

    @property
    def is_integral(self) -> bool:
        """Whether the variable must take integer values."""
        return self.vtype in (VarType.INTEGER, VarType.BINARY)

    # -- expression building -------------------------------------------------

    def to_expr(self) -> "LinExpr":
        """This variable as a single-term linear expression."""
        return LinExpr({self: 1.0}, 0.0)

    def __add__(self, other):
        return self.to_expr() + other

    def __radd__(self, other):
        return self.to_expr() + other

    def __sub__(self, other):
        return self.to_expr() - other

    def __rsub__(self, other):
        return (-self.to_expr()) + other

    def __mul__(self, other):
        return self.to_expr() * other

    def __rmul__(self, other):
        return self.to_expr() * other

    def __neg__(self):
        return -self.to_expr()

    def __le__(self, other):
        return self.to_expr() <= other

    def __ge__(self, other):
        return self.to_expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, Variable):
            return self is other
        return self.to_expr() == other

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Var {self.name} {self.vtype.value} [{self.lower}, {self.upper}]>"


class LinExpr:
    """An affine expression ``sum(coeff * var) + constant``.

    Immutable in spirit: arithmetic returns new expressions. Terms with a
    zero coefficient are dropped eagerly to keep expressions small.
    """

    __slots__ = ("terms", "constant")

    def __init__(
        self,
        terms: Union[Dict[Variable, float], None] = None,
        constant: Number = 0.0,
    ) -> None:
        self.terms: Dict[Variable, float] = {}
        if terms:
            for var, coeff in terms.items():
                if not isinstance(var, Variable):
                    raise ModelError(f"expression term key {var!r} is not a Variable")
                if coeff:
                    self.terms[var] = float(coeff)
        self.constant = float(constant)

    @staticmethod
    def total(items: Iterable[Union["LinExpr", Variable, Number]]) -> "LinExpr":
        """Sum an iterable of expressions/variables/numbers."""
        acc = LinExpr()
        for item in items:
            acc = acc + item
        return acc

    def _as_expr(self, other: Union["LinExpr", Variable, Number]) -> "LinExpr":
        if isinstance(other, LinExpr):
            return other
        if isinstance(other, Variable):
            return other.to_expr()
        if isinstance(other, (int, float)):
            return LinExpr(constant=other)
        raise ModelError(f"cannot combine expression with {type(other).__name__}")

    def __add__(self, other):
        rhs = self._as_expr(other)
        terms = dict(self.terms)
        for var, coeff in rhs.terms.items():
            updated = terms.get(var, 0.0) + coeff
            if updated:
                terms[var] = updated
            else:
                terms.pop(var, None)
        return LinExpr(terms, self.constant + rhs.constant)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (self._as_expr(other) * -1.0)

    def __rsub__(self, other):
        return self._as_expr(other) + (self * -1.0)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            raise ModelError("expressions only support scalar multiplication")
        if not scalar:
            return LinExpr()
        return LinExpr(
            {var: coeff * scalar for var, coeff in self.terms.items()},
            self.constant * scalar,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    # -- constraint building (implemented in model.py to avoid a cycle) ------

    def __le__(self, other):
        from tests.oracles.milp.model import Constraint, Sense

        return Constraint(self - self._as_expr(other), Sense.LE)

    def __ge__(self, other):
        from tests.oracles.milp.model import Constraint, Sense

        return Constraint(self - self._as_expr(other), Sense.GE)

    def __eq__(self, other):  # type: ignore[override]
        from tests.oracles.milp.model import Constraint, Sense

        return Constraint(self - self._as_expr(other), Sense.EQ)

    def __hash__(self) -> int:
        return id(self)

    def value(self, assignment: Dict[Variable, float]) -> float:
        """Evaluate under a variable assignment."""
        return self.constant + sum(
            coeff * assignment[var] for var, coeff in self.terms.items()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{coeff:+g}*{var.name}" for var, coeff in self.terms.items()]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)
