"""Unit tests for variables and linear expressions."""

import pytest

from repro.errors import ModelError
from tests.oracles.milp import LinExpr, Model, Sense, VarType


@pytest.fixture
def model():
    return Model("test")


class TestVariables:
    def test_binary_var_domain(self, model):
        x = model.binary_var("x")
        assert x.lower == 0 and x.upper == 1
        assert x.vtype is VarType.BINARY
        assert x.is_integral

    def test_integer_var(self, model):
        y = model.integer_var("y", lower=2, upper=7)
        assert (y.lower, y.upper) == (2, 7)
        assert y.is_integral

    def test_continuous_var_default_bounds(self, model):
        z = model.continuous_var("z")
        assert z.lower == 0
        assert z.upper == float("inf")
        assert not z.is_integral

    def test_duplicate_name_rejected(self, model):
        model.binary_var("x")
        with pytest.raises(ModelError):
            model.binary_var("x")

    def test_empty_domain_rejected(self, model):
        with pytest.raises(ModelError):
            model.integer_var("bad", lower=5, upper=2)

    def test_indices_are_column_positions(self, model):
        names = [model.binary_var(f"v{i}").index for i in range(4)]
        assert names == [0, 1, 2, 3]


class TestExpressions:
    def test_addition_collects_terms(self, model):
        x, y = model.binary_var("x"), model.binary_var("y")
        expr = x + y + x
        assert expr.terms[x] == 2.0
        assert expr.terms[y] == 1.0

    def test_subtraction_cancels_terms(self, model):
        x = model.binary_var("x")
        expr = x - x
        assert expr.terms == {}

    def test_scalar_multiplication(self, model):
        x = model.binary_var("x")
        expr = 3 * x + 1
        assert expr.terms[x] == 3.0
        assert expr.constant == 1.0

    def test_negation(self, model):
        x = model.binary_var("x")
        expr = -(x + 2)
        assert expr.terms[x] == -1.0
        assert expr.constant == -2.0

    def test_rsub(self, model):
        x = model.binary_var("x")
        expr = 5 - x
        assert expr.terms[x] == -1.0
        assert expr.constant == 5.0

    def test_total_sums_mixed_items(self, model):
        xs = [model.binary_var(f"x{i}") for i in range(3)]
        expr = LinExpr.total([*xs, 4])
        assert all(expr.terms[x] == 1.0 for x in xs)
        assert expr.constant == 4.0

    def test_non_scalar_multiplication_rejected(self, model):
        x, y = model.binary_var("x"), model.binary_var("y")
        with pytest.raises(ModelError):
            _ = x.to_expr() * y.to_expr()

    def test_value_evaluation(self, model):
        x, y = model.binary_var("x"), model.binary_var("y")
        expr = 2 * x - 3 * y + 1
        assert expr.value({x: 1.0, y: 1.0}) == 0.0


class TestConstraintBuilding:
    def test_le_constraint(self, model):
        x = model.binary_var("x")
        constraint = x + 1 <= 3
        assert constraint.sense is Sense.LE
        # canonical form: x + 1 - 3 <= 0
        assert constraint.expr.constant == -2.0

    def test_ge_and_eq(self, model):
        x = model.binary_var("x")
        assert (x >= 1).sense is Sense.GE
        assert (x.to_expr() == 1).sense is Sense.EQ

    def test_expr_vs_expr_comparison(self, model):
        x, y = model.binary_var("x"), model.binary_var("y")
        constraint = x + y <= 2 * y
        assert constraint.expr.terms[x] == 1.0
        assert constraint.expr.terms[y] == -1.0

    def test_violated_by(self, model):
        x = model.binary_var("x")
        constraint = x <= 0
        assert constraint.violated_by({x: 1.0})
        assert not constraint.violated_by({x: 0.0})
