"""Optimal (and random) binding of targets onto a chosen configuration.

Second step of the paper's Sec. 6 algorithm: with the minimum bus count
fixed, bind targets to buses minimizing the maximum per-bus summed
traffic overlap (MILP2 / Eq. 11). Lower overlap on every bus directly
lowers average and peak packet latency -- Sec. 7.3 measures a 2.1x
average-latency gap between random and optimal bindings, which
``random_feasible_binding`` exists to reproduce.

The assignment DFS (:mod:`repro.core.assignment`) solves it exactly and
deterministically: a degenerate optimum always resolves to the same
binding, so reports and artifacts are byte-stable. The paper's literal
Eq. 3-11 MILP is the test suite's reference for both steps
(``tests/oracles/milp``).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.assignment import AssignmentResult, solve_assignment
from repro.core.instrumentation import record_solve
from repro.core.preprocess import ConflictAnalysis
from repro.core.problem import CrossbarDesignProblem
from repro.core.spec import BusBinding, SynthesisConfig
from repro.errors import SynthesisError

__all__ = [
    "optimize_binding",
    "solve_binding",
    "bus_binding",
    "random_feasible_binding",
    "binding_overlap_objective",
]


def binding_overlap_objective(
    problem: CrossbarDesignProblem, binding
) -> int:
    """Evaluate Eq. 11's objective: max per-bus summed pairwise overlap."""
    overlap = problem.overlap_matrix
    num_buses = max(binding) + 1
    worst = 0
    for bus in range(num_buses):
        members = [t for t, b in enumerate(binding) if b == bus]
        total = 0
        for position, i in enumerate(members):
            for j in members[position + 1 :]:
                total += int(overlap[i, j])
        worst = max(worst, total)
    return worst


def optimize_binding(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    num_buses: int,
    config: SynthesisConfig,
) -> BusBinding:
    """Solve MILP2: the overlap-minimizing binding for ``num_buses``."""
    return bus_binding(
        solve_binding(problem, conflicts, num_buses, config), num_buses
    )


def solve_binding(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    num_buses: int,
    config: SynthesisConfig,
    lower_bound: Optional[int] = None,
) -> AssignmentResult:
    """The Eq. 11 solve behind :func:`optimize_binding`, as the DFS's
    own result (``nodes`` and ``found_at`` included); ``lower_bound``
    is passed to :func:`~repro.core.assignment.solve_assignment`."""
    record_solve("binding")
    return solve_assignment(
        problem,
        conflicts,
        num_buses,
        max_targets_per_bus=config.max_targets_per_bus,
        optimize=True,
        node_limit=config.node_limit,
        lower_bound=lower_bound,
    )


def bus_binding(result: AssignmentResult, num_buses: int) -> BusBinding:
    """The :class:`BusBinding` of an Eq. 11 solve's result."""
    if not result.is_feasible:
        raise SynthesisError(
            f"binding search infeasible for {num_buses} buses (configuration "
            f"search and binding disagree)"
        )
    return BusBinding(
        binding=result.binding,
        num_buses=result.buses_used,
        max_bus_overlap=int(result.objective),
        optimal=result.status == "optimal",
    )


def random_feasible_binding(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    num_buses: int,
    config: SynthesisConfig,
    seed: int = 0,
) -> BusBinding:
    """A random binding satisfying Eqs. 3-9 (the Sec. 7.3 baseline)."""
    result = solve_assignment(
        problem,
        conflicts,
        num_buses,
        max_targets_per_bus=config.max_targets_per_bus,
        optimize=False,
        node_limit=config.node_limit,
        rng=random.Random(seed),
    )
    if not result.is_feasible:
        raise SynthesisError(
            f"no feasible binding exists for {num_buses} buses"
        )
    return BusBinding(
        binding=result.binding,
        num_buses=result.buses_used,
        max_bus_overlap=binding_overlap_objective(problem, result.binding),
        optimal=False,
    )
