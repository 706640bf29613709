"""Unit tests for model assembly and standard-form conversion."""

import numpy as np
import pytest

from repro.errors import ModelError
from tests.oracles.milp import Model


class TestModelAssembly:
    def test_add_requires_constraint(self):
        model = Model()
        with pytest.raises(ModelError):
            model.add("x <= 1")  # type: ignore[arg-type]

    def test_foreign_variable_rejected(self):
        owner, other = Model("a"), Model("b")
        x = other.binary_var("x")
        with pytest.raises(ModelError):
            owner.add(x <= 1)

    def test_foreign_objective_rejected(self):
        owner, other = Model("a"), Model("b")
        x = other.binary_var("x")
        with pytest.raises(ModelError):
            owner.minimize(x)

    def test_constraint_naming(self):
        model = Model()
        x = model.binary_var("x")
        constraint = model.add(x <= 1, name="cap")
        assert constraint.name == "cap"

    def test_objective_replacement(self):
        model = Model()
        x = model.binary_var("x")
        model.minimize(x)
        model.minimize(2 * x)
        assert model.objective.terms[x] == 2.0

    def test_scalar_objective_allowed(self):
        model = Model()
        model.minimize(0)
        assert model.objective.constant == 0.0


class TestStandardForm:
    def test_le_and_ge_become_ub_rows(self):
        model = Model()
        x = model.continuous_var("x", upper=10)
        y = model.continuous_var("y", upper=10)
        model.add(x + 2 * y <= 4)
        model.add(x - y >= 1)
        form = model.to_standard_form()
        assert form.a_ub.shape == (2, 2)
        np.testing.assert_allclose(form.a_ub[0], [1, 2])
        np.testing.assert_allclose(form.b_ub[0], 4)
        # GE rows are negated into <= form
        np.testing.assert_allclose(form.a_ub[1], [-1, 1])
        np.testing.assert_allclose(form.b_ub[1], -1)

    def test_eq_rows(self):
        model = Model()
        x = model.continuous_var("x")
        model.add(x.to_expr() == 5)
        form = model.to_standard_form()
        assert form.a_eq.shape == (1, 1)
        np.testing.assert_allclose(form.b_eq, [5])

    def test_objective_vector(self):
        model = Model()
        x = model.continuous_var("x")
        y = model.continuous_var("y")
        model.minimize(3 * x - y)
        form = model.to_standard_form()
        np.testing.assert_allclose(form.objective, [3, -1])

    def test_integer_mask(self):
        model = Model()
        model.continuous_var("c")
        model.binary_var("b")
        model.integer_var("i")
        form = model.to_standard_form()
        assert form.integer_mask.tolist() == [False, True, True]

    def test_check_assignment_lists_violations(self):
        model = Model()
        x = model.binary_var("x")
        y = model.binary_var("y")
        first = model.add(x + y <= 1, name="cap")
        model.add(x <= 1)
        violations = model.check_assignment({x: 1.0, y: 1.0})
        assert violations == [first]
