"""Optimal (and random) binding of targets onto a chosen configuration.

Second step of the paper's Sec. 6 algorithm: with the minimum bus count
fixed, bind targets to buses minimizing the maximum per-bus summed
traffic overlap (MILP2 / Eq. 11). Lower overlap on every bus directly
lowers average and peak packet latency -- Sec. 7.3 measures a 2.1x
average-latency gap between random and optimal bindings, which
``random_feasible_binding`` exists to reproduce.

Backend equivalence
-------------------
The MILP path (:mod:`repro.milp`, HiGHS on the literal Eq. 3-11 model)
and the default assignment DFS are both exact, so they agree on the
optimal *objective* -- but not necessarily on which optimal *point*
they return when the optimum is degenerate. Reports and artifacts must
be byte-identical regardless of backend, so once a MILP solve proves
the optimal objective ``V``, the returned binding is re-derived
canonically: a deterministic assignment DFS
(:func:`repro.core.assignment.solve_assignment` with
``overlap_budget=V``) finds the first binding of overlap ``<= V`` in a
fixed search order. The MILP's own solution vector only surfaces when
the solve was *not* proven optimal (limit-degraded incumbents) or the
canonical search exhausts its node budget. The DFS doubles as an
oracle cross-check: a proven-optimal objective the DFS cannot realize
means two exact solvers disagree, which is raised, not papered over.
"""

from __future__ import annotations

import random

from repro.core.assignment import solve_assignment
from repro.core.formulation import build_binding_model
from repro.core.instrumentation import record_solve
from repro.core.preprocess import ConflictAnalysis
from repro.core.problem import CrossbarDesignProblem
from repro.core.spec import BusBinding, SynthesisConfig
from repro.errors import SolverError, SynthesisError
from repro.milp import BranchBoundOptions, solve_milp

__all__ = [
    "optimize_binding",
    "random_feasible_binding",
    "binding_overlap_objective",
    "milp_solver_options",
]


def milp_solver_options(
    config: SynthesisConfig, feasibility_only: bool = False
) -> BranchBoundOptions:
    """The :func:`solve_milp` options a synthesis config translates to."""
    return BranchBoundOptions(
        node_limit=config.node_limit,
        feasibility_only=feasibility_only,
    )


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


def _canonical_optimal_binding(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    num_buses: int,
    config: SynthesisConfig,
    objective: int,
    crossbar_model,
    solution,
):
    """The deterministic optimal binding realizing a proven objective.

    See the module docstring: a proven MILP optimum funnels through this
    budget-bounded DFS so degenerate ties resolve identically. Falls
    back to the MILP's own point only when the DFS runs out of node
    budget; raises when the DFS *proves* the objective unrealizable.
    """
    try:
        result = solve_assignment(
            problem,
            conflicts,
            num_buses,
            max_targets_per_bus=config.max_targets_per_bus,
            optimize=False,
            node_limit=config.node_limit,
            overlap_budget=objective,
        )
    except SolverError:
        return crossbar_model.extract_binding(solution)
    if not result.is_feasible:
        raise SynthesisError(
            f"MILP proved binding objective {objective} for {num_buses} "
            f"buses but the assignment oracle finds no such binding -- "
            f"solver disagreement"
        )
    return result.binding


def optimize_binding(
    problem: CrossbarDesignProblem,
    conflicts: ConflictAnalysis,
    num_buses: int,
    config: SynthesisConfig,
    warm_binding=None,
) -> BusBinding:
    """Solve MILP2: the overlap-minimizing binding for ``num_buses``.

    ``warm_binding`` is an optional target->bus tuple from a previous
    solve of a similar problem (the pipeline's warm-hint store); the
    MILP path uses it as an advisory objective cutoff. Warm or cold,
    proven-optimal results return the same canonical binding.
    """
    if config.backend == "milp":
        options = milp_solver_options(config)
        record_solve("binding", backend="highs")
        crossbar_model = build_binding_model(
            problem, conflicts, num_buses, config.max_targets_per_bus
        )
        warm_values = None
        if warm_binding is not None and len(warm_binding) == problem.num_targets:
            warm_values = crossbar_model.warm_values(
                warm_binding,
                objective=binding_overlap_objective(problem, warm_binding),
            )
        solution = solve_milp(
            crossbar_model.model, options, warm_values=warm_values
        )
        if not solution.is_feasible:
            raise SynthesisError(
                f"binding MILP infeasible for {num_buses} buses (configuration "
                f"search and binding disagree)"
            )
        optimal = solution.status.value == "optimal"
        if optimal:
            binding = _canonical_optimal_binding(
                problem, conflicts, num_buses, config,
                int(round(solution.objective)), crossbar_model, solution,
            )
        else:
            binding = crossbar_model.extract_binding(solution)
        return BusBinding(
            binding=binding,
            num_buses=max(binding) + 1,
            max_bus_overlap=binding_overlap_objective(problem, binding),
            optimal=optimal,
        )
    record_solve("binding")
    result = solve_assignment(
        problem,
        conflicts,
        num_buses,
        max_targets_per_bus=config.max_targets_per_bus,
        optimize=True,
        node_limit=config.node_limit,
    )
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
