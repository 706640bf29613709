"""The literal MILP formulation of the paper (Eqs. 3-11).

These builders transcribe Section 5 of the paper onto
:mod:`tests.oracles.milp` models, variable for variable:

* ``x[i][k]`` -- binding variables (Definition 3, Eq. 3, Eq. 9),
* window bandwidth constraints (Eq. 4),
* ``sb[i][j][k]`` / ``s[i][j]`` -- sharing variables with the
  linearized product constraints (Definition 4, Eqs. 5-6),
* conflict exclusions ``c[i][j] * s[i][j] = 0`` (Eq. 7),
* ``maxtb`` (Eq. 8),
* the binding objective ``min maxov`` (Eq. 11).

The paper sums ``om[i][j] * sb[i][j][k]`` over *all* ordered pairs; we
sum unordered pairs (``i < j``), which scales the objective by exactly 2
and does not change the argmin. Sharing variables are only materialized
for pairs with non-zero total overlap or a conflict -- for any other pair
they would be unconstrained and objective-free, so dropping them leaves
the model equivalent (the test suite checks this against brute force).

The specialized solver in :mod:`repro.core.assignment` answers the same
models faster; this module exists to keep the reproduction faithful and
to cross-validate the specialized solver
(:mod:`tests.oracles.milp.reference`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.preprocess import ConflictAnalysis
from repro.core.problem import CrossbarDesignProblem
from tests.oracles.milp import LinExpr, Model, Variable

__all__ = ["CrossbarModel", "build_feasibility_model", "build_binding_model"]


@dataclass
class CrossbarModel:
    """A built MILP plus handles to its decision variables."""

    model: Model
    x: List[List[Variable]]  # x[i][k]: target i on bus k
    maxov: Optional[Variable] = None
    sb: Dict[Tuple[int, int, int], Variable] = field(default_factory=dict)

    def extract_binding(self, solution) -> Tuple[int, ...]:
        """Read the target->bus assignment out of a MILP solution."""
        binding = []
        for row in self.x:
            bus = next(
                (k for k, var in enumerate(row) if solution.value(var) > 0.5),
                0,
            )
            binding.append(bus)
        return _renumber_dense(tuple(binding))


def _renumber_dense(binding: Tuple[int, ...]) -> Tuple[int, ...]:
    """Renumber buses densely in order of first appearance."""
    mapping: Dict[int, int] = {}
    dense = []
    for bus in binding:
        if bus not in mapping:
            mapping[bus] = len(mapping)
        dense.append(mapping[bus])
    return tuple(dense)


def _build_common(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    num_buses: int,
    max_targets_per_bus: Optional[int],
    with_sharing: bool,
    name: str,
) -> CrossbarModel:
    model = Model(name)
    num_targets = problem.num_targets

    x = [
        [model.binary_var(f"x_{i}_{k}") for k in range(num_buses)]
        for i in range(num_targets)
    ]

    # Eq. 3: each target on exactly one bus.
    for i in range(num_targets):
        model.add(LinExpr.total(x[i]) == 1, name=f"one-bus[{i}]")

    # Eq. 4: per-window, per-bus bandwidth (per-window capacity for
    # variable windows).
    comm = problem.comm
    capacities = problem.capacities
    for k in range(num_buses):
        for m in range(problem.num_windows):
            demand = LinExpr.total(
                int(comm[i, m]) * x[i][k] for i in range(num_targets) if comm[i, m]
            )
            if demand.terms:
                model.add(demand <= int(capacities[m]), name=f"bw[{k},{m}]")

    # Eq. 8: bounded targets per bus.
    if max_targets_per_bus is not None:
        for k in range(num_buses):
            on_bus = LinExpr.total(x[i][k] for i in range(num_targets))
            model.add(on_bus <= max_targets_per_bus, name=f"maxtb[{k}]")

    maxov = None
    sb: Dict[Tuple[int, int, int], Variable] = {}
    overlap = problem.overlap_matrix
    interesting_pairs = [
        (i, j)
        for i in range(num_targets)
        for j in range(i + 1, num_targets)
        if overlap[i, j] or (i, j) in conflicts.reasons
    ]

    if with_sharing and interesting_pairs:
        # Definition 4 / Eqs. 5-6: sharing variables and linearization.
        for i, j in interesting_pairs:
            for k in range(num_buses):
                var = model.binary_var(f"sb_{i}_{j}_{k}")
                sb[i, j, k] = var
                model.add(x[i][k] + x[j][k] - 1 <= var, name=f"sb-lb[{i},{j},{k}]")
                model.add(
                    0.5 * x[i][k] + 0.5 * x[j][k] >= var,
                    name=f"sb-ub[{i},{j},{k}]",
                )
        # Eq. 7 via Eq. 6: conflicting pairs must share no bus.
        for i, j in conflicts.reasons:
            if (i, j, 0) in sb:
                model.add(
                    LinExpr.total(sb[i, j, k] for k in range(num_buses)) <= 0,
                    name=f"conflict[{i},{j}]",
                )
        # Eq. 11: minimize the maximum per-bus summed overlap.
        maxov = model.continuous_var("maxov", lower=0.0)
        for k in range(num_buses):
            bus_overlap = LinExpr.total(
                int(overlap[i, j]) * sb[i, j, k]
                for i, j in interesting_pairs
                if overlap[i, j]
            )
            if bus_overlap.terms:
                model.add(bus_overlap <= maxov, name=f"maxov[{k}]")
        model.minimize(maxov)
    else:
        # Feasibility flavour: Eq. 7 enforced directly on x without the
        # sharing machinery (equivalent and much smaller).
        for i, j in conflicts.reasons:
            for k in range(num_buses):
                model.add(x[i][k] + x[j][k] <= 1, name=f"conflict[{i},{j},{k}]")

    return CrossbarModel(model=model, x=x, maxov=maxov, sb=sb)


def build_feasibility_model(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    num_buses: int,
    max_targets_per_bus: Optional[int] = None,
) -> CrossbarModel:
    """MILP1 (Eq. 10): pure feasibility, no objective."""
    return _build_common(
        problem,
        conflicts,
        num_buses,
        max_targets_per_bus,
        with_sharing=False,
        name=f"feasibility-{num_buses}buses",
    )


def build_binding_model(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    num_buses: int,
    max_targets_per_bus: Optional[int] = None,
) -> CrossbarModel:
    """MILP2 (Eq. 11): optimal binding minimizing ``maxov``."""
    return _build_common(
        problem,
        conflicts,
        num_buses,
        max_targets_per_bus,
        with_sharing=True,
        name=f"binding-{num_buses}buses",
    )
